"""Command-line interface: staged pipeline with on-disk artifacts.

Subcommands cover the four stages, a neighbor table and the chain of all four:

  train-embeddings   corpus -> embeddings.txt
  train              labeled triples + embeddings -> models/<role>.json
  score              triples + models -> scores.jsonl (rank order)
  evaluate           split / train / evaluate per fraction -> report.json/.csv
  neighbors          nearest-neighbor table for seed keywords
  pipeline           the four stages in one run

Each stage is one ``_stage_*`` function, run by its subcommand and by
``pipeline`` alike, so both write the same artifacts. This module holds
no artifact format: it parses the config, runs the stages through the
library (a models directory goes through ``pipeline.save_bundle`` and
``pipeline.load_bundle``), prints, and maps errors to exit codes.

Hyperparameters come from an optional flat "key = value" config file with
command-line overrides; every stage seed derives deterministically from
one master seed, so reruns with identical inputs produce byte-identical
artifacts (no timestamps are ever written into them).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

from . import embedding as emb
from . import evaluation, forest, pipeline
from .corpus import (
    ContextualTriple, InputError, TripleParseError, build_corpus, load_triples, open_atomic, open_text,
)
from .seeds import derive_seed

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_FAILURE = 1  # a stage could not produce its artifacts
EXIT_USAGE = 2  # unreadable/invalid inputs or configuration


@dataclass(frozen=True)
class RunConfig:
    embedding: emb.EmbeddingConfig
    forest: forest.ForestConfig
    threshold: float = 0.5
    gains: evaluation.GainMap = evaluation.GainMap()
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must lie in [0, 1]")


def _cast_optional_int(text: str):
    if text.lower() in ("none", "auto"):
        return None
    return int(text)


# config file section -> the dataclass whose fields are its keys; the
# top-level keys are RunConfig's other fields. A key casts its value like
# its field's default: int, float, or an optional int for a None default.
_SECTIONS = {"embedding": emb.EmbeddingConfig, "forest": forest.ForestConfig, "gains": evaluation.GainMap}
_CASTS = {int: int, float: float, type(None): _cast_optional_int}
_CONFIG_KEYS = {
    (f"{section}.{f.name}" if section else f.name): _CASTS[type(f.default)]
    for section, cls in [("", RunConfig), *_SECTIONS.items()]
    for f in fields(cls) if f.name not in _SECTIONS
}


def parse_config_file(path) -> dict:
    """Parse the flat ``key = value`` format ('#' starts a comment; each key once)."""
    values = {}
    set_on = {}
    with open_text(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}: line {line_no}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise InputError(f"{path}: line {line_no}: unknown key {key!r}")
            if key in set_on:
                raise InputError(f"{path}: line {line_no}: {key!r} already set on line {set_on[key]}")
            set_on[key] = line_no
            try:
                values[key] = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise InputError(f"{path}: line {line_no}: bad value {raw!r} for {key!r}") from None
    return values


def build_run_config(config_path, seed_override: int | None) -> RunConfig:
    """Build each section's dataclass from its keys in the file, then RunConfig.

    Unset keys take the dataclass defaults, and ``--seed`` beats the file's
    master seed. An unset stage seed derives from the master seed through
    the section's tag ("embedding" / "forest"). A value a dataclass rejects
    raises ``InputError`` naming the config file.
    """
    values = parse_config_file(config_path) if config_path else {}
    if seed_override is not None:
        values["seed"] = seed_override
    seed = values.get("seed", DEFAULT_SEED)
    try:
        for section, cls in _SECTIONS.items():
            prefix = f"{section}."
            given = {k[len(prefix):]: values.pop(k) for k in list(values) if k.startswith(prefix)}
            if "seed" in cls.__dataclass_fields__:
                given.setdefault("seed", derive_seed(seed, section))
            values[section] = cls(**given)
        return RunConfig(**values)
    except ValueError as exc:
        raise InputError(f"{config_path}: {exc}") from None


def _load_many(paths) -> list[list[ContextualTriple]]:
    """The triples of each file, in order; no id may appear in two files."""
    loaded = []
    seen = set()
    for path in paths:
        triples = load_triples(path)
        for triple in triples:
            if triple.id in seen:
                raise TripleParseError(f"{path}: duplicate id {triple.id!r} across input files")
            seen.add(triple.id)
        loaded.append(triples)
    return loaded


def _require_labels(triples: list[ContextualTriple], path) -> list[ContextualTriple]:
    """The triples of a ``--labeled`` file, if every one has a label."""
    for triple in triples:
        if triple.label is None:
            raise InputError(f"{path}: triple {triple.id!r} has no label")
    return triples


def _check_features_per_split(run: RunConfig, config_path, dim: int) -> None:
    """Refuse a ``forest.features_per_split`` above ``dim``, the forests' feature count."""
    if (run.forest.features_per_split or 0) > dim:
        raise InputError(
            f"{config_path}: 'forest.features_per_split' = {run.forest.features_per_split} "
            f"exceeds the embedding dimension {dim}"
        )


def _parse_fractions(text: str) -> list[float]:
    """The fractions in order; each is told apart by its ``:g`` form, which
    derives its split seed and labels its report rows."""
    fractions = {}
    for piece in text.split(","):
        try:
            value = float(piece)
        except ValueError:
            raise InputError(f"bad fraction {piece!r}") from None
        label = f"{value:g}"
        if not 0.0 < value < 1.0:
            raise InputError(f"fraction {label} must lie strictly between 0 and 1")
        if label in fractions:
            raise InputError(f"fraction {label} is given twice")
        fractions[label] = value
    return list(fractions.values())


def _stage_embeddings(triples, run: RunConfig, out_dir: Path) -> emb.EmbeddingModel:
    model = emb.finalize(emb.train_skipgram(build_corpus(triples), run.embedding))
    out_dir.mkdir(parents=True, exist_ok=True)
    emb.save_embedding(model, out_dir / "embeddings.txt")
    print(f"vocabulary size: {len(model.vocab)}")
    print(f"epochs: {run.embedding.epochs}")
    print("epoch mean losses: " + " ".join(f"{loss:.6f}" for loss in model.epoch_losses))
    # nan marks an epoch without a pair: train_skipgram refuses a nan from a diverged run
    final = [loss for loss in model.epoch_losses if not math.isnan(loss)][-1]
    print(f"final mean loss: {final:.6f}")
    print(f"wrote {out_dir / 'embeddings.txt'}")
    return model


def _stage_train(labeled, model, embeddings_path, run: RunConfig, out_dir: Path,
                 features=None) -> pipeline.ModelBundle:
    bundle = pipeline.train_role_models(labeled, model, run.forest, features)
    models_dir = out_dir / "models"
    pipeline.save_bundle(bundle, models_dir, embeddings_path)
    print(f"trained roles: {', '.join(sorted(bundle.classifiers))}")
    for role, reason in bundle.skipped_roles:
        print(f"skipped role {role!r}: {reason}")
    print(f"wrote {models_dir}")
    return bundle


def _stage_score(triples, bundle, out_dir: Path, per_role: bool = False, features=None) -> None:
    scored = pipeline.rank(pipeline.score_triples(triples, bundle, features))
    if per_role:  # a stable sort keeps rank's order within each role
        scored = sorted(scored, key=lambda s: s.triple.role)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "scores.jsonl"
    with open_atomic(out_path) as f:
        pipeline.write_scored(scored, f)
    print(f"scored {len(scored)} triples -> {out_path}")


def _stage_evaluate(labeled, model, run: RunConfig, fractions, out_dir: Path, features) -> None:
    """``features``: ``labeled`` featurized once, from which every fraction's split takes its rows."""
    split_seed = derive_seed(run.seed, "split")
    runs = {}
    for fraction in fractions:
        train, test = evaluation.split_train_test(
            labeled, fraction, derive_seed(split_seed, f"{fraction:g}")
        )
        try:
            bundle = pipeline.train_role_models(train, model, run.forest, features)
        except ValueError as exc:
            raise ValueError(f"fraction {fraction:g}: {exc}") from None
        for role, reason in bundle.skipped_roles:
            print(f"fraction {fraction:g}: skipped role {role!r}: {reason}")
        runs[fraction] = evaluation.evaluate(
            bundle, test, threshold=run.threshold, gains=run.gains, features=features
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open_atomic(out_dir / "report.json") as f:
        evaluation.write_reports_json(runs, f)
    with open_atomic(out_dir / "report.csv") as f:
        evaluation.write_reports_csv(runs, f)
    for fraction in sorted(runs):
        aggregate = runs[fraction].aggregate
        if not runs[fraction].per_role:  # no role report, so no test triple
            print(f"fraction {fraction:g}: no test triple")
            continue
        print(
            f"fraction {fraction:g}: P={aggregate.precision:.4f} "
            f"R={aggregate.recall:.4f} F1={aggregate.f1:.4f} NDCG={aggregate.ndcg:.4f}"
        )
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'report.csv'}")


def cmd_train_embeddings(args) -> int:
    run = build_run_config(args.config, args.seed)
    _stage_embeddings(chain(*_load_many(args.data)), run, Path(args.out))
    return EXIT_OK


def cmd_train(args) -> int:
    run = build_run_config(args.config, args.seed)
    labeled = _require_labels(load_triples(args.labeled), args.labeled)
    model = emb.load_embedding(args.embeddings)
    _check_features_per_split(run, args.config, model.dim)
    _stage_train(labeled, model, args.embeddings, run, Path(args.out))
    return EXIT_OK


def cmd_score(args) -> int:
    build_run_config(args.config, args.seed)  # scoring reads no key, but a bad file is named
    bundle = pipeline.load_bundle(args.models, args.embeddings)
    triples = load_triples(args.triples)
    _stage_score(triples, bundle, Path(args.out), per_role=args.per_role)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    run = build_run_config(args.config, args.seed)
    fractions = _parse_fractions(args.fractions)
    labeled = _require_labels(load_triples(args.labeled), args.labeled)
    model = emb.load_embedding(args.embeddings)
    _check_features_per_split(run, args.config, model.dim)
    _stage_evaluate(labeled, model, run, fractions, Path(args.out), pipeline.featurize_triples(labeled, model))
    return EXIT_OK


def cmd_neighbors(args) -> int:
    model = emb.load_embedding(args.embeddings)
    rows = []
    for word in args.words:
        try:
            neighbors = emb.nearest_neighbors(model, word, args.k)
        except KeyError:
            print(f"warning: {word!r} is not in the vocabulary", file=sys.stderr)
            continue
        rows.append((word, neighbors))
    if not rows:
        print("no seed keyword was found in the vocabulary", file=sys.stderr)
        return EXIT_FAILURE
    width = max(len("seed keyword"), max(len(word) for word, _ in rows)) + 2
    print(f"{'seed keyword':<{width}}top {args.k} nearest neighbors")
    for word, neighbors in rows:
        listing = ", ".join(f"{w} ({sim:.4f})" for w, sim in neighbors)
        print(f"{word:<{width}}{listing}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """train-embeddings, train, score and evaluate chained into one directory."""
    run = build_run_config(args.config, args.seed)
    _check_features_per_split(run, args.config, run.embedding.dim)
    fractions = _parse_fractions(args.fractions)
    files = _load_many([args.labeled, args.unlabeled] if args.unlabeled else [args.labeled])
    labeled = _require_labels(files[0], args.labeled)
    # scored: the --score-file, else a non-empty unlabeled file, else the labeled one
    to_score = load_triples(args.score_file) if args.score_file else files[-1] or labeled
    out_dir = Path(args.out)
    model = _stage_embeddings(chain(*files), run, out_dir)
    features = pipeline.featurize_triples(labeled, model)  # ids are unique, see _load_many
    bundle = _stage_train(labeled, model, out_dir / "embeddings.txt", run, out_dir, features)
    _stage_score(to_score, bundle, out_dir, features=features if to_score is labeled else None)
    _stage_evaluate(labeled, model, run, fractions, out_dir, features)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolerank",
        description="Role relevance scoring over contextual triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "train-embeddings",
        help="train word vectors from the pooled context sentences",
    )
    p.add_argument(
        "--data",
        action="append",
        required=True,
        help="triples file (repeatable; labeled and unlabeled files pool together)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("train", help="train one forest per role")
    p.add_argument("--labeled", required=True, help="labeled triples file")
    p.add_argument("--embeddings", required=True, help="embeddings.txt from train-embeddings")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score and rank triples")
    p.add_argument("--triples", required=True, help="triples file to score")
    p.add_argument("--models", required=True, help="models directory from train")
    p.add_argument("--embeddings", required=True)
    p.add_argument(
        "--per-role",
        action="store_true",
        help="emit one ranked block per role instead of a single global ranking",
    )
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "evaluate",
        help="split / retrain / report precision, recall, F1 and NDCG per fraction",
    )
    p.add_argument("--labeled", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument(
        "--fractions",
        default="0.1,0.5,0.9",
        help="comma-separated training fractions (default 0.1,0.5,0.9)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("neighbors", help="nearest neighbors of seed keywords")
    p.add_argument("words", nargs="+", help="seed keywords")
    p.add_argument("--embeddings", required=True)
    p.add_argument("-k", type=_positive_int, default=3, help="neighbors per word (default 3)")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("pipeline", help="run every stage into one output directory")
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled", help="extra unlabeled triples pooled into the corpus")
    p.add_argument(
        "--score-file",
        help="triples to score (default: the unlabeled file, else the labeled file)",
    )
    p.add_argument("--fractions", default="0.1,0.5,0.9")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


# (error type, exit code, message prefix); the first type an error is an
# instance of wins, so InputError comes before ValueError, its base
_EXIT_CODES = (
    (InputError, EXIT_USAGE, ""),
    (OSError, EXIT_USAGE, ""),
    (ValueError, EXIT_FAILURE, ""),
    # a valid but huge size key, such as embedding.dim or forest.n_trees
    (MemoryError, EXIT_FAILURE, "out of memory: "),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in _EXIT_CODES) as exc:
        code, prefix = next((c, p) for kind, c, p in _EXIT_CODES if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
