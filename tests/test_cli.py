import dataclasses
import hashlib
import json
import logging
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rolerank import embedding as emb
from rolerank import forest
from rolerank.cli import _CONFIG_KEYS, build_run_config, main, parse_config_file
from rolerank.corpus import InputError
from synth import make_labeled_triples, triples_to_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"

# a config value's text: an int, a float (nan, +-inf and 1e308 included) or short text
CONFIG_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "none", "auto"]),
    st.text(alphabet="abe019.-+ ", max_size=6),
)


@pytest.fixture()
def workspace(tmp_path):
    labeled = make_labeled_triples(
        roles=("affiliate", "trustee"), n_per_role=30, seed=77
    )
    labeled_path = tmp_path / "labeled.jsonl"
    triples_to_jsonl(labeled, labeled_path)

    unlabeled = [dataclasses.replace(t, label=None) for t in make_labeled_triples(
        roles=("affiliate",), n_per_role=10, seed=99
    )]
    unlabeled_renamed = [
        type(t)(id="u-" + t.id, head=t.head, role=t.role, tail=t.tail,
                sentences=t.sentences, label=None)
        for t in unlabeled
    ]
    unlabeled_path = tmp_path / "unlabeled.jsonl"
    triples_to_jsonl(unlabeled_renamed, unlabeled_path)

    config_path = tmp_path / "rolerank.cfg"
    config_path.write_text(
        "# fast test settings\n"
        "seed = 11\n"
        "embedding.dim = 8\n"
        "embedding.epochs = 2\n"
        "forest.n_trees = 5\n"
    )
    return tmp_path, labeled_path, unlabeled_path, config_path


def run(*argv):
    return main([str(a) for a in argv])


def first_split(payload):
    return next(i for i, left in enumerate(payload["left"]) if left >= 0)


def first_leaf(payload):
    return payload["left"].index(-1)


def edited(payload, key, index, value):
    payload[key][index] = value
    return payload


# one broken model file per case, made from a trained one, with the
# message its load must give
MODEL_EDITS = {
    "nan threshold": (
        lambda p: edited(p, "threshold", first_split(p), float("nan")), "non-finite"),
    "null threshold": (
        lambda p: edited(p, "threshold", first_split(p), None), "'threshold' must be a list"),
    "leaf value 1.5": (
        lambda p: edited(p, "value", first_leaf(p), 1.5), "leaf fraction"),
    "child before parent": (
        lambda p: edited(p, "left", first_split(p), first_split(p)), "after its parent"),
    "child in next tree": (
        lambda p: edited(p, "right", first_split(p), p["roots"][1]), "inside its tree"),
    "feature out of range": (
        lambda p: edited(p, "feature", first_split(p), p["n_features"]), "feature index"),
    "tree count": (lambda p: dict(p, roots=p["roots"][:-1]), "expected 5 trees"),
    "deeper than max_depth": (
        lambda p: dict(p, config=dict(p["config"], max_depth=1)), "deeper than config.max_depth"),
    "training_size not a list": (lambda p: dict(p, training_size=7), "'training_size'"),
    "negative training_size": (
        lambda p: dict(p, training_size=[-5, 7]), "'training_size' counts must be >= 0"),
    "role a number": (lambda p: dict(p, role=123), "'role' must be a string"),
    "role a list": (lambda p: dict(p, role=["x"]), "'role' must be a string"),
    "payload not an object": (lambda p: [p], "must be an object"),
    "n_features missing": (
        lambda p: {k: v for k, v in p.items() if k != "n_features"}, "missing 'n_features'"),
    "config a list": (lambda p: dict(p, config=[]), "'config' must be an object"),
    "child past int64": (
        lambda p: edited(p, "left", first_split(p), 2**63), "'left' holds a number out of range"),
    "value array short": (lambda p: dict(p, value=p["value"][:-1]), "node arrays differ in length"),
    "roots not from 0": (
        lambda p: dict(p, roots=[1, *p["roots"][1:]]), "roots must start at 0 and increase"),
    "roots not increasing": (
        lambda p: dict(p, roots=[0, p["roots"][2], p["roots"][1], *p["roots"][3:]]),
        "roots must start at 0 and increase"),
}


class TestConfig:
    def test_parse_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "seed = 9\n"
            "\n"
            "# comment\n"
            "embedding.dim = 12   # trailing comment\n"
            "forest.max_depth = none\n"
            "gains.neutral = 0.5\n"
        )
        values = parse_config_file(path)
        assert values == {
            "seed": 9,
            "embedding.dim": 12,
            "forest.max_depth": None,
            "gains.neutral": 0.5,
        }

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("embedding.mystery = 3\n")
        assert run("train-embeddings", "--data", path, "--config", path) == 2

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("embedding.dim = many\n")
        assert run("train-embeddings", "--data", path, "--config", path) == 2

    def test_seed_override_beats_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 5\n")
        run_config = build_run_config(path, seed_override=6)
        assert run_config.seed == 6
        assert build_run_config(path, None).seed == 5

    def test_derived_stage_seeds_differ(self):
        run_config = build_run_config(None, seed_override=1)
        assert run_config.embedding.seed != run_config.forest.seed

    def test_explicit_stage_seed_respected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("embedding.seed = 123\n")
        assert build_run_config(path, None).embedding.seed == 123

    @pytest.mark.parametrize("lines", [
        "embedding.unigram_power = nan",
        "embedding.unigram_power = inf",
        "embedding.unigram_power = 1000",
        "gains.highly_relevant = 2000",
        "threshold = nan",
        "threshold = 7",
        "embedding.subsample = nan",
        "embedding.lr_initial = inf",
        "embedding.epochs = 0",
        "embedding.dim = 8\nembedding.dim = 9",
        "embedding.dim 8",
    ])
    def test_invalid_config_value_rejected(self, workspace, capsys, lines):
        tmp, labeled, _, _ = workspace
        path = tmp / "bad.cfg"
        path.write_text(lines + "\n")
        out = tmp / "out"
        assert run("pipeline", "--labeled", labeled, "--fractions", "0.5",
                   "--config", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err
        assert not (out / "embeddings.txt").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "pipeline"])
    def test_features_per_split_above_dim_exit_2(self, trained, tmp_path, capsys, command):
        _, labeled, _, config, out = trained
        path = tmp_path / "wide.cfg"
        path.write_text(config.read_text() + "forest.features_per_split = 9\n")  # dim 8
        inputs = ["--labeled", labeled]
        if command != "pipeline":
            inputs += ["--embeddings", out / "embeddings.txt"]
        if command != "train":
            inputs += ["--fractions", "0.5"]
        target = tmp_path / "out"
        assert run(command, *inputs, "--config", path, "--out", target) == 2
        err = capsys.readouterr().err
        assert f"{path}: 'forest.features_per_split' = 9 exceeds the embedding dimension 8" in err
        assert not target.exists()

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("forest.n_trees = 5\n# again\nforest.n_trees = 6\n")
        with pytest.raises(InputError, match=r"c\.cfg: line 3: 'forest.n_trees' already set on line 1"):
            parse_config_file(path)

    def test_readme_block_is_the_defaults(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("## Configuration\n", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        # every key but the derived stage seeds is documented
        assert set(parse_config_file(path)) == set(_CONFIG_KEYS) - {"embedding.seed", "forest.seed"}
        assert build_run_config(path, None) == build_run_config(None, None)

    @given(st.lists(st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), CONFIG_VALUES), max_size=6))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_config_file_is_valid_or_named(self, tmp_path, lines):
        path = tmp_path / "fuzz.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        try:
            run_config = build_run_config(path, None)
        except InputError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        for part in (run_config, run_config.embedding, run_config.forest, run_config.gains):
            for field in dataclasses.fields(part):
                value = getattr(part, field.name)
                assert not isinstance(value, float) or math.isfinite(value), field.name
        assert 0 <= run_config.embedding.unigram_power <= 1
        assert 0 <= run_config.threshold <= 1
        assert run_config.gains.highly_relevant <= 512


class TestNonUtf8Input:
    @pytest.mark.parametrize("bad", ["labeled", "embeddings", "config"])
    def test_exit_2_names_file(self, workspace, capsys, bad):
        tmp, labeled, _, config = workspace
        paths = {"labeled": labeled, "embeddings": tmp / "embeddings.txt", "config": config}
        paths["embeddings"].write_text("1 2\nword 0.6 0.8\n")
        paths[bad] = tmp / f"latin1-{bad}"
        paths[bad].write_bytes("# café\n".encode("latin-1"))
        code = run("train", "--labeled", paths["labeled"], "--embeddings", paths["embeddings"],
                   "--config", paths["config"], "--out", tmp / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert f"{paths[bad]}: not UTF-8 text" in err
        assert "Traceback" not in err
        assert not (tmp / "out").exists()


class TestTrainEmbeddings:
    def test_writes_artifact_and_stats(self, workspace, capsys):
        tmp, labeled, unlabeled, config = workspace
        out = tmp / "emb"
        assert run("train-embeddings", "--data", labeled, "--data", unlabeled,
                   "--config", config, "--out", out) == 0
        captured = capsys.readouterr().out
        assert "vocabulary size:" in captured
        assert "final mean loss:" in captured
        assert (out / "embeddings.txt").exists()

    def test_prints_each_epoch_loss(self, workspace, capsys):
        tmp, labeled, _, config = workspace
        config.write_text(config.read_text().replace("epochs = 2", "epochs = 3"))
        out = tmp / "emb"
        assert run("train-embeddings", "--data", labeled, "--config", config, "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        curve = next(line for line in lines if line.startswith("epoch mean losses: "))
        losses = [float(x) for x in curve.split(": ")[1].split()]
        assert len(losses) == 3
        assert f"final mean loss: {losses[-1]:.6f}" in lines

    def test_rerun_byte_identical(self, workspace):
        tmp, labeled, _, config = workspace
        out1, out2 = tmp / "e1", tmp / "e2"
        run("train-embeddings", "--data", labeled, "--config", config, "--out", out1)
        run("train-embeddings", "--data", labeled, "--config", config, "--out", out2)
        assert (out1 / "embeddings.txt").read_bytes() == (out2 / "embeddings.txt").read_bytes()

    def test_diverged_training_writes_nothing(self, workspace, capsys, monkeypatch):
        tmp, labeled, _, config = workspace
        train = emb.train_skipgram

        def diverged(corpus, embedding_config):
            model = train(corpus, embedding_config)
            model.input_vectors[1] = np.nan
            return model

        monkeypatch.setattr(emb, "train_skipgram", diverged)
        out = tmp / "out"
        assert run("train-embeddings", "--data", labeled, "--config", config, "--out", out) == 1
        assert "training diverged" in capsys.readouterr().err
        assert not (out / "embeddings.txt").exists()

    @pytest.mark.parametrize("command", ["train-embeddings", "pipeline"])
    def test_finite_blow_up_exits_1_writing_nothing(self, workspace, command):
        """At embedding.lr_initial = 1 the run blows up to a finite loss far
        above the bound. It is refused with a named error, and stderr holds
        nothing else: no numpy RuntimeWarning."""
        import subprocess
        import sys

        import rolerank

        tmp, labeled, _, config = workspace
        config.write_text(config.read_text() + "embedding.lr_initial = 1.0\n")
        out = tmp / "out"
        data = "--data" if command == "train-embeddings" else "--labeled"
        src = str(Path(rolerank.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "rolerank.cli", command, data, str(labeled),
             "--config", str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert re.fullmatch(
            r"error: training diverged: final mean loss \d\.\d+e\+\d+ is not at most "
            r"\(1 \+ negatives\) \* ln 2 = 4\.15888, .*embedding\.lr_initial\)\n", done.stderr
        ), done.stderr
        assert not out.exists()

    def test_unreadable_path_exit_2(self, tmp_path):
        assert run("train-embeddings", "--data", tmp_path / "missing.jsonl") == 2

    def test_huge_dim_exits_1_without_traceback(self, workspace, capsys):
        """A dim whose (2V, dim) matrix outgrows any address space (several
        hundred PiB here) is valid config, but numpy refuses the allocation
        at once: that MemoryError is a named exit, not a traceback."""
        tmp, labeled, _, config = workspace
        config.write_text(config.read_text().replace("dim = 8", "dim = 1000000000000000"))
        out = tmp / "out"
        assert run("train-embeddings", "--data", labeled, "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err
        assert not (out / "embeddings.txt").exists()

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n')
        assert run("train-embeddings", "--data", bad, "--out", tmp_path / "o") == 2
        assert f"{bad}: line 1" in capsys.readouterr().err


@pytest.fixture()
def trained(workspace):
    tmp, labeled, unlabeled, config = workspace
    out = tmp / "run"
    assert run("train-embeddings", "--data", labeled, "--data", unlabeled,
               "--config", config, "--out", out) == 0
    assert run("train", "--labeled", labeled, "--embeddings", out / "embeddings.txt",
               "--config", config, "--out", out) == 0
    return tmp, labeled, unlabeled, config, out


class TestTrain:
    def test_models_and_manifest(self, trained):
        _, _, _, _, out = trained
        manifest = json.loads((out / "models" / "manifest.json").read_text())
        assert set(manifest["roles"]) == {"affiliate", "trustee"}
        assert (out / "models" / "affiliate.json").exists()

    def test_plural_role_maps_to_canonical_file(self, workspace):
        tmp, labeled, _, config = workspace
        plural = tmp / "plural.jsonl"
        rows = []
        for i in range(8):
            rows.append(json.dumps({
                "id": f"p-{i}", "head": "H", "role": "affiliates", "tail": "T",
                "sentences": [f"affiliatesig{i % 3} filler{i} filler{i+1}"],
                "label": "RELEVANT" if i % 2 == 0 else "IRRELEVANT",
            }))
        plural.write_text("\n".join(rows) + "\n")
        out = tmp / "plural-run"
        run("train-embeddings", "--data", plural, "--config", config, "--out", out)
        assert run("train", "--labeled", plural, "--embeddings", out / "embeddings.txt",
                   "--config", config, "--out", out) == 0
        manifest = json.loads((out / "models" / "manifest.json").read_text())
        assert list(manifest["roles"]) == ["affiliate"]

    def test_role_files_never_the_manifest(self, workspace):
        # "manifests" canonicalizes to "manifest"; "a b" and "a_b" both sanitize to "a_b"
        tmp, _, _, config = workspace
        labeled = tmp / "roles.jsonl"
        triples_to_jsonl(
            make_labeled_triples(roles=("manifests", "a b", "a_b"), n_per_role=30, seed=5), labeled
        )
        out, staged = tmp / "roles-run", tmp / "roles-score"
        assert run("pipeline", "--labeled", labeled, "--fractions", "0.5",
                   "--config", config, "--out", out) == 0
        files = json.loads((out / "models" / "manifest.json").read_text())["roles"]
        assert sorted(files) == ["a b", "a_b", "manifest"]
        assert len(set(files.values())) == 3 and "manifest.json" not in files.values()
        assert run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", staged) == 0
        assert (staged / "scores.jsonl").read_bytes() == (out / "scores.jsonl").read_bytes()

    @pytest.mark.parametrize("command", ["train", "evaluate", "pipeline"])
    def test_unlabeled_triple_in_labeled_file_exit_2(self, trained, tmp_path, capsys, command):
        _, labeled, _, config, out = trained
        rows = labeled.read_text().splitlines()
        row = json.loads(rows[3])
        del row["label"]
        rows[3] = json.dumps(row)
        partly = tmp_path / "partly.jsonl"
        partly.write_text("\n".join(rows) + "\n")
        target = tmp_path / "out"
        inputs = [] if command == "pipeline" else ["--embeddings", out / "embeddings.txt"]
        assert run(command, "--labeled", partly, *inputs,
                   "--config", config, "--out", target) == 2
        assert f"{partly}: triple {row['id']!r} has no label" in capsys.readouterr().err
        assert not target.exists()  # so pipeline trained no embeddings

    def test_single_class_role_skipped_exit_zero(self, workspace, capsys):
        tmp, labeled, _, config = workspace
        mixed = tmp / "mixed.jsonl"
        lines = labeled.read_text().splitlines()
        for i in range(4):
            lines.append(json.dumps({
                "id": f"s-{i}", "head": "H", "role": "guarantor", "tail": "T",
                "sentences": [f"filler{i} filler{i+1} filler{i+2}"],
                "label": "RELEVANT",
            }))
        mixed.write_text("\n".join(lines) + "\n")
        out = tmp / "skip-run"
        run("train-embeddings", "--data", mixed, "--config", config, "--out", out)
        assert run("train", "--labeled", mixed, "--embeddings", out / "embeddings.txt",
                   "--config", config, "--out", out) == 0
        manifest = json.loads((out / "models" / "manifest.json").read_text())
        assert ["guarantor", "single-class"] in manifest["skipped"]

    def test_all_oov_triple_warned(self, workspace, caplog):
        tmp, labeled, _, config = workspace
        out = tmp / "oov-run"
        assert run("train-embeddings", "--data", labeled, "--config", config, "--out", out) == 0
        with_oov = tmp / "with-oov.jsonl"
        with_oov.write_text(labeled.read_text() + json.dumps({
            "id": "oov-1", "head": "H", "role": "affiliate", "tail": "T",
            "sentences": ["qqunseen zzunseen"], "label": "RELEVANT",
        }) + "\n")
        assert run("train", "--labeled", with_oov, "--embeddings", out / "embeddings.txt",
                   "--config", config, "--out", out) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["role affiliate: 1 all-OOV training triples excluded: oov-1"]

    def test_interrupted_manifest_write_keeps_the_old_manifest(self, trained, monkeypatch):
        _, labeled, _, config, out = trained
        manifest = out / "models" / "manifest.json"
        before = manifest.read_text()

        def interrupted(obj, f, **kwargs):
            f.write('{"roles": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run("train", "--labeled", labeled, "--embeddings", out / "embeddings.txt",
                "--config", config, "--out", out)
        assert manifest.read_text() == before
        assert sorted(p.name for p in manifest.parent.iterdir()) == [
            "affiliate.json", "manifest.json", "trustee.json"]

    def test_zero_trainable_roles_exit_nonzero(self, workspace):
        tmp, labeled, _, config = workspace
        neutral_only = tmp / "neutral.jsonl"
        rows = [json.dumps({
            "id": f"n-{i}", "head": "H", "role": "agent", "tail": "T",
            "sentences": [f"filler{i % 5} filler{(i + 1) % 5}"], "label": "NEUTRAL",
        }) for i in range(6)]
        neutral_only.write_text("\n".join(rows) + "\n")
        out = tmp / "zero-run"
        run("train-embeddings", "--data", neutral_only, "--config", config, "--out", out)
        assert run("train", "--labeled", neutral_only,
                   "--embeddings", out / "embeddings.txt",
                   "--config", config, "--out", out) == 1


class TestScore:
    def test_rank_order_output(self, trained):
        tmp, labeled, _, config, out = trained
        assert run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", out) == 0
        rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_per_role_blocks(self, trained):
        tmp, labeled, _, config, out = trained
        assert run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", out, "--per-role") == 0
        rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        roles = [r["role"] for r in rows]
        assert roles == sorted(roles)
        for role in set(roles):
            block = [r["score"] for r in rows if r["role"] == role]
            assert block == sorted(block, reverse=True)

    def test_empty_input(self, trained, tmp_path):
        _, _, _, _, out = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("score", "--triples", empty, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path) == 0
        assert (tmp_path / "scores.jsonl").read_text() == ""

    def test_corrupt_model_named(self, trained, tmp_path, capsys):
        _, labeled, _, _, out = trained
        (out / "models" / "affiliate.json").write_text("{broken")
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path)
        assert code != 0
        assert "affiliate.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("mystery", 1), ("seed", None), ("n_trees", "5"), ("max_depth", 2.5),
         ("min_samples_leaf", True), ("features_per_split", [2])],
    )
    def test_model_config_key_named(self, trained, tmp_path, capsys, key, value):
        _, labeled, _, _, out = trained
        path = out / "models" / "affiliate.json"
        payload = json.loads(path.read_text())
        if value is None:
            del payload["config"][key]
        else:
            payload["config"][key] = value
        path.write_text(json.dumps(payload))
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "affiliate.json" in err and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", sorted(MODEL_EDITS))
    def test_malformed_model_named(self, trained, tmp_path, capsys, edit):
        _, labeled, _, _, out = trained
        path = out / "models" / "affiliate.json"
        payload = json.loads(path.read_text())
        change, message = MODEL_EDITS[edit]
        path.write_text(json.dumps(change(payload)))
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "scores.jsonl").exists()

    def test_swapped_roles_named(self, trained, tmp_path, capsys):
        _, labeled, _, _, out = trained
        path = out / "models" / "manifest.json"
        manifest = json.loads(path.read_text())
        roles = manifest["roles"]
        manifest["roles"] = {"affiliate": roles["trustee"], "trustee": roles["affiliate"]}
        path.write_text(json.dumps(manifest))
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path} says {out / 'models' / 'trustee.json'} holds role 'affiliate'" in err
        assert not (tmp_path / "scores.jsonl").exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff",
            b"[]",
            b'{"roles": []}',
            b'{"roles": {"affiliate": 5}}',
            b'{"roles": {"affiliate": "affiliate.json"}, "skipped": [5]}',
            b"{}",
            b'{"roles": {}}',
        ],
        ids=["not utf-8", "list", "roles a list", "file name a number", "skipped not a pair",
             "no roles", "roles empty"],
    )
    def test_malformed_manifest_named(self, trained, tmp_path, capsys, content):
        _, labeled, _, _, out = trained
        path = out / "models" / "manifest.json"
        path.write_bytes(content)
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot read model manifest {path}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "scores.jsonl").exists()

    @pytest.mark.parametrize("change", ["other embeddings", "no hash"])
    def test_models_of_other_embeddings_refused(self, trained, tmp_path, capsys, change):
        tmp, labeled, _, config, out = trained
        embeddings, manifest = out / "embeddings.txt", out / "models" / "manifest.json"
        if change == "no hash":
            payload = json.loads(manifest.read_text())
            del payload["embeddings_sha256"]
            manifest.write_text(json.dumps(payload))
        else:  # another run's embeddings of the same dimension
            embeddings = tmp / "other" / "embeddings.txt"
            assert run("train-embeddings", "--data", labeled, "--config", config,
                       "--seed", 12, "--out", embeddings.parent) == 0
        capsys.readouterr()
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", embeddings, "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and str(embeddings) in err
        assert "Traceback" not in err
        assert not (tmp_path / "scores.jsonl").exists()

    def test_models_of_other_dimension_refused(self, trained, tmp_path, capsys):
        tmp, labeled, _, config, out = trained
        narrow = tmp / "narrow.cfg"
        narrow.write_text(config.read_text().replace("embedding.dim = 8", "embedding.dim = 6"))
        embeddings = tmp / "narrow" / "embeddings.txt"
        assert run("train-embeddings", "--data", labeled, "--config", narrow,
                   "--out", embeddings.parent) == 0
        manifest = out / "models" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["embeddings_sha256"] = hashlib.sha256(embeddings.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", embeddings, "--out", tmp_path)
        assert code == 1
        model = out / "models" / "affiliate.json"
        assert f"{model}: trained on 8-d features, embedding has dimension 6" in capsys.readouterr().err
        assert not (tmp_path / "scores.jsonl").exists()

    @pytest.mark.parametrize("change", ["leaf value", "no hash"])
    def test_edited_model_refused(self, trained, tmp_path, capsys, change):
        _, labeled, _, _, out = trained
        model, manifest = out / "models" / "affiliate.json", out / "models" / "manifest.json"
        if change == "no hash":
            payload = json.loads(manifest.read_text())
            del payload["models_sha256"]["affiliate"]
            manifest.write_text(json.dumps(payload))
        else:  # a leaf flipped to the other class: the file still validates
            doc = json.loads(model.read_text())
            leaf = doc["left"].index(-1)
            doc["value"][leaf] = 1.0 - doc["value"][leaf]
            model.write_text(json.dumps(doc))
            assert forest.load_classifier(model).value[leaf] == doc["value"][leaf]
        code = run(*score_argv(labeled, out, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and str(model) in err
        assert "Traceback" not in err
        assert not (tmp_path / "scores.jsonl").exists()

    @pytest.mark.parametrize("name", ["absolute", "../models/affiliate.json", "sub/affiliate.json",
                                      ".", "..", ""])
    def test_manifest_file_names_confined(self, trained, tmp_path, capsys, name):
        _, labeled, _, _, out = trained
        other = tmp_path / "other-run"
        other.mkdir()
        (other / "affiliate.json").write_bytes((out / "models" / "affiliate.json").read_bytes())
        manifest = out / "models" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["roles"]["affiliate"] = str(other / "affiliate.json") if name == "absolute" else name
        manifest.write_text(json.dumps(payload))
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot read model manifest {manifest}: " in err and "not the plain name of a file" in err
        assert not (tmp_path / "scores.jsonl").exists()

    def test_missing_config_file_named(self, trained, tmp_path, capsys):
        _, labeled, _, _, out = trained
        missing = tmp_path / "missing.conf"
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", out / "embeddings.txt", "--config", missing, "--out", tmp_path)
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "scores.jsonl").exists()

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_embedding_named(self, trained, tmp_path, capsys, value):
        _, labeled, _, _, out = trained
        path = out / "embeddings.txt"
        lines = path.read_text().splitlines()
        word, _, rest = lines[2].partition(" ")
        lines[2] = f"{word} {value} {rest.partition(' ')[2]}"
        path.write_text("\n".join(lines) + "\n")
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", path, "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: line 3: non-finite value" in err
        assert not (tmp_path / "scores.jsonl").exists()

    def test_off_unit_embedding_named(self, trained, tmp_path, capsys):
        _, labeled, _, _, out = trained
        path = out / "embeddings.txt"
        lines = path.read_text().splitlines()
        word, _, rest = lines[2].partition(" ")
        lines[2] = " ".join([word] + [repr(2 * float(x)) for x in rest.split()])
        path.write_text("\n".join(lines) + "\n")
        code = run("score", "--triples", labeled, "--models", out / "models",
                   "--embeddings", path, "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: line 3: vector norm 2 is not 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "scores.jsonl").exists()


DEEP_LIST = b"[" * 200_000
DEEP_OBJECT = b'{"a":' * 200_000
# (position, bytes cut, bytes inserted); a position wraps round the file's length
EDITS = st.tuples(st.integers(0, 1 << 16), st.integers(0, 8), st.binary(max_size=8))


def loader_files(labeled, out):
    return {"triples": labeled, "embeddings": out / "embeddings.txt",
            "manifest": out / "models" / "manifest.json", "model": out / "models" / "affiliate.json"}


def score_argv(labeled, out, target):
    return ("score", "--triples", labeled, "--models", out / "models",
            "--embeddings", out / "embeddings.txt", "--out", target)


class TestLoaderInput:
    @pytest.mark.parametrize("target, content, code", [
        ("triples", DEEP_LIST, 2), ("manifest", DEEP_LIST, 1), ("model", DEEP_OBJECT, 1)],
        ids=["triples", "manifest", "model"])
    def test_deep_nesting_named(self, trained, tmp_path, capsys, target, content, code):
        _, labeled, _, config, out = trained
        path, new = loader_files(labeled, out)[target], tmp_path / "new"
        path.write_bytes(content)
        if target == "triples":
            argv = ("train-embeddings", "--data", path, "--config", config, "--out", new)
        else:
            argv = score_argv(labeled, out, new)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert (f"{path}: line 1: invalid JSON" if target == "triples" else str(path)) in err
        assert "Traceback" not in err
        assert not new.exists()

    @given(target=st.sampled_from(["triples", "embeddings", "manifest", "model"]), edit=EDITS)
    @example(target="triples", edit=(0, 1 << 30, DEEP_LIST))
    @example(target="manifest", edit=(0, 1 << 30, DEEP_LIST))
    @example(target="model", edit=(0, 1 << 30, DEEP_OBJECT))
    @example(target="triples", edit=(0, 1 << 30, b'{"id": ' + b"1" * 5000 + b"}"))
    @example(target="embeddings", edit=(0, 1 << 30, b"0 -1\n"))
    @example(target="embeddings", edit=(0, 1 << 30, b"1 2\nword 1e300 1e300\n"))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_exits_named(self, trained, tmp_path, capsys, target, edit):
        """``score`` on a file with some bytes cut or inserted exits 1 or 2,
        names the file and prints no traceback. An edit can leave a triples
        or manifest file valid (a changed letter in a sentence, say), and
        then the run may succeed; an edited embeddings.txt or model file
        never does, because its sha256 no longer matches the manifest."""
        _, labeled, _, _, out = trained
        path = loader_files(labeled, out)[target]
        original = path.read_bytes()
        pos, cut, insert = edit
        pos %= len(original) + 1
        mutated = original[:pos] + insert + original[pos + cut:]
        assume(mutated != original)
        path.write_bytes(mutated)
        try:
            code = run(*score_argv(labeled, out, tmp_path))
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        if code == 0 and target not in ("embeddings", "model"):
            return
        assert code in (1, 2), err
        assert str(path) in err
        assert "Traceback" not in err


class TestEvaluateCommand:
    def test_reports_written(self, trained):
        tmp, labeled, _, config, out = trained
        assert run("evaluate", "--labeled", labeled, "--embeddings", out / "embeddings.txt",
                   "--fractions", "0.5", "--config", config, "--out", out) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["fractions"][0]["fraction"] == 0.5
        csv_text = (out / "report.csv").read_text()
        assert csv_text.startswith("role,fraction,precision,recall,f1,ndcg")

    def test_bad_fraction_exit_2(self, trained):
        _, labeled, _, config, out = trained
        assert run("evaluate", "--labeled", labeled, "--embeddings", out / "embeddings.txt",
                   "--fractions", "1.0", "--config", config, "--out", out) == 2

    def test_non_numeric_fraction_exit_2(self, trained, tmp_path, capsys):
        _, labeled, _, config, out = trained
        assert run("evaluate", "--labeled", labeled, "--embeddings", out / "embeddings.txt",
                   "--fractions", "0.5,half", "--config", config, "--out", tmp_path) == 2
        assert "bad fraction 'half'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("fractions, repeated", [("0.5,0.5", "0.5"), ("0.1,0.9,0.10", "0.1")])
    def test_repeated_fraction_exit_2(self, trained, tmp_path, capsys, fractions, repeated):
        _, labeled, _, config, out = trained
        assert run("evaluate", "--labeled", labeled, "--embeddings", out / "embeddings.txt",
                   "--fractions", fractions, "--config", config, "--out", tmp_path) == 2
        assert f"fraction {repeated} is given twice" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_same_seed_identical_reports(self, trained):
        tmp, labeled, _, config, out = trained
        o1, o2 = tmp / "r1", tmp / "r2"
        for target in (o1, o2):
            assert run("evaluate", "--labeled", labeled,
                       "--embeddings", out / "embeddings.txt",
                       "--fractions", "0.5,0.8", "--config", config, "--out", target) == 0
        assert (o1 / "report.json").read_bytes() == (o2 / "report.json").read_bytes()
        assert (o1 / "report.csv").read_bytes() == (o2 / "report.csv").read_bytes()


class TestNeighbors:
    def test_table_output(self, trained, capsys):
        _, _, _, _, out = trained
        assert run("neighbors", "affiliatesig0", "filler1",
                   "--embeddings", out / "embeddings.txt", "-k", "3") == 0
        captured = capsys.readouterr().out
        assert "affiliatesig0" in captured and "filler1" in captured

    def test_oov_word_warns_but_succeeds(self, trained, capsys):
        _, _, _, _, out = trained
        assert run("neighbors", "affiliatesig0", "notaword",
                   "--embeddings", out / "embeddings.txt") == 0
        assert "notaword" in capsys.readouterr().err

    def test_all_oov_fails(self, trained):
        _, _, _, _, out = trained
        assert run("neighbors", "nope1", "nope2",
                   "--embeddings", out / "embeddings.txt") == 1

    @pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.conf"), ("--seed", "9"),
                                             ("--out", "/nonexistent/dir")])
    def test_stage_flags_rejected(self, trained, capsys, flag, value):
        _, _, _, _, out = trained
        with pytest.raises(SystemExit) as excinfo:
            run("neighbors", "affiliatesig0", "--embeddings", out / "embeddings.txt", flag, value)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_k_zero_rejected(self, trained):
        _, _, _, _, out = trained
        with pytest.raises(SystemExit) as excinfo:
            run("neighbors", "x", "--embeddings", out / "embeddings.txt", "-k", "0")
        assert excinfo.value.code == 2


class TestPipelineCommand:
    def test_full_chain(self, workspace, capsys):
        tmp, labeled, unlabeled, config = workspace
        out = tmp / "chain"
        assert run("pipeline", "--labeled", labeled, "--unlabeled", unlabeled,
                   "--fractions", "0.5", "--config", config, "--out", out) == 0
        for name in ("embeddings.txt", "scores.jsonl", "report.json", "report.csv"):
            assert (out / name).exists()
        assert (out / "models" / "manifest.json").exists()
        # scores cover the unlabeled file when one is given
        rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert all(r["id"].startswith("u-") for r in rows)

    def test_score_file_flag(self, workspace):
        tmp, labeled, unlabeled, config = workspace
        out = tmp / "chain2"
        assert run("pipeline", "--labeled", labeled, "--score-file", unlabeled,
                   "--fractions", "0.5", "--config", config, "--out", out) == 0
        rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert rows and all(r["id"].startswith("u-") for r in rows)

    def test_defaults_to_scoring_labeled(self, workspace):
        tmp, labeled, _, config = workspace
        out = tmp / "chain3"
        assert run("pipeline", "--labeled", labeled,
                   "--fractions", "0.5", "--config", config, "--out", out) == 0
        rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert len(rows) == 60  # the labeled file itself

    def test_fraction_with_no_test_triple(self, workspace):
        tmp, _, _, config = workspace
        labeled = tmp / "small.jsonl"
        # 10 per role: strata of 5, 3 and 2 triples, each trained whole at 0.9
        triples_to_jsonl(make_labeled_triples(n_per_role=10, seed=3), labeled)
        out = tmp / "small"
        assert run("pipeline", "--labeled", labeled, "--fractions", "0.5,0.9",
                   "--config", config, "--out", out) == 0
        half, most = json.loads((out / "report.json").read_text())["fractions"]
        assert half["roles"] and half["aggregate"]["ndcg_defined"]
        assert most["roles"] == {}
        assert most["aggregate"]["ndcg"] == 1.0 and not most["aggregate"]["ndcg_defined"]
        rows = (out / "report.csv").read_text().splitlines()
        assert [row for row in rows if ",0.9," in row] == [row for row in rows if row.startswith("ALL,0.9,")]

    def test_id_in_both_files_exit_2(self, workspace, capsys):
        tmp, labeled, unlabeled, config = workspace
        first = labeled.read_text().splitlines()[0]
        unlabeled.write_text(unlabeled.read_text() + first + "\n")
        out = tmp / "dup"
        assert run("pipeline", "--labeled", labeled, "--unlabeled", unlabeled,
                   "--fractions", "0.5", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{unlabeled}: duplicate id {json.loads(first)['id']!r}" in err
        assert not (out / "embeddings.txt").exists()

    def test_staged_equals_pipeline(self, workspace):
        tmp, labeled, unlabeled, config = workspace
        staged, chained = tmp / "staged", tmp / "chained"
        embeddings = staged / "embeddings.txt"
        common = ("--config", config, "--out", staged)
        assert run("train-embeddings", "--data", labeled, "--data", unlabeled, *common) == 0
        assert run("train", "--labeled", labeled, "--embeddings", embeddings, *common) == 0
        assert run("score", "--triples", unlabeled, "--models", staged / "models",
                   "--embeddings", embeddings, *common) == 0
        assert run("evaluate", "--labeled", labeled, "--embeddings", embeddings,
                   "--fractions", "0.5,0.8", *common) == 0
        assert run("pipeline", "--labeled", labeled, "--unlabeled", unlabeled,
                   "--fractions", "0.5,0.8", "--config", config, "--out", chained) == 0
        models = sorted(p.name for p in (chained / "models").iterdir())
        assert sorted(p.name for p in (staged / "models").iterdir()) == models
        for name in ["embeddings.txt", "scores.jsonl", "report.json", "report.csv",
                     *(f"models/{m}" for m in models)]:
            assert (staged / name).read_bytes() == (chained / name).read_bytes(), name
