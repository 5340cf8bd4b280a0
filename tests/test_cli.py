import dataclasses
import json
import logging

import pytest

from rolerank.cli import build_run_config, main, parse_config_file
from synth import make_labeled_triples, triples_to_jsonl


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
    "payload not an object": (lambda p: [p], "must be an object"),
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

    def test_invalid_config_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("embedding.epochs = 0\n")
        (tmp_path / "d.jsonl").write_text("")
        assert run(
            "train-embeddings", "--data", tmp_path / "d.jsonl", "--config", path
        ) == 2


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

    def test_rerun_byte_identical(self, workspace):
        tmp, labeled, _, config = workspace
        out1, out2 = tmp / "e1", tmp / "e2"
        run("train-embeddings", "--data", labeled, "--config", config, "--out", out1)
        run("train-embeddings", "--data", labeled, "--config", config, "--out", out2)
        assert (out1 / "embeddings.txt").read_bytes() == (out2 / "embeddings.txt").read_bytes()

    def test_unreadable_path_exit_2(self, tmp_path):
        assert run("train-embeddings", "--data", tmp_path / "missing.jsonl") == 2

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
