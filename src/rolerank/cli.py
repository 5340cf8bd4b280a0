"""Command-line interface: staged pipeline with on-disk artifacts.

Subcommands cover the four stages, a neighbor table and the chain of all four:

  train-embeddings   corpus -> embeddings.txt
  train              labeled triples + embeddings -> models/<role>.json
  score              triples + models -> scores.jsonl (rank order)
  evaluate           split / train / evaluate per fraction -> report.json/.csv
  neighbors          nearest-neighbor table for seed keywords
  pipeline           the four stages in one run

Each stage is one ``_stage_*`` function, run by its subcommand and by
``pipeline`` alike, so both write the same artifacts.

Hyperparameters come from an optional flat "key = value" config file with
command-line overrides; every stage seed derives deterministically from
one master seed, so reruns with identical inputs produce byte-identical
artifacts (no timestamps are ever written into them).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
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


class ConfigError(InputError):
    pass


def _cast_optional_int(text: str):
    if text.lower() in ("none", "auto", "unlimited"):
        return None
    return int(text)


_CONFIG_CASTS = {
    "seed": int,
    "threshold": float,
    "embedding.dim": int,
    "embedding.window": int,
    "embedding.negatives": int,
    "embedding.epochs": int,
    "embedding.lr_initial": float,
    "embedding.lr_final": float,
    "embedding.min_count": int,
    "embedding.unigram_power": float,
    "embedding.subsample": float,
    "embedding.seed": int,
    "forest.n_trees": int,
    "forest.max_depth": _cast_optional_int,
    "forest.min_samples_leaf": int,
    "forest.features_per_split": _cast_optional_int,
    "forest.seed": int,
    "gains.highly_relevant": float,
    "gains.relevant": float,
    "gains.neutral": float,
    "gains.irrelevant": float,
}


def parse_config_file(path) -> dict:
    """Parse the flat ``key = value`` format ('#' starts a comment)."""
    values = {}
    with open_text(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_CASTS:
                raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_CASTS[key](raw)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {line_no}: bad value {raw!r} for {key!r}"
                ) from None
    return values


def build_run_config(config_path, seed_override: int | None) -> RunConfig:
    """Resolve file values, CLI overrides, and derived per-stage seeds.

    Stage seeds default to blake2b-derived children of the master seed
    ("embedding" / "forest" tags) unless the config sets them explicitly.
    """
    values = parse_config_file(config_path) if config_path else {}
    seed = seed_override if seed_override is not None else values.get("seed", DEFAULT_SEED)

    def pick(key, default):
        return values.get(key, default)

    try:
        embedding_config = emb.EmbeddingConfig(
            dim=pick("embedding.dim", 30),
            window=pick("embedding.window", 5),
            negatives=pick("embedding.negatives", 5),
            epochs=pick("embedding.epochs", 20),
            lr_initial=pick("embedding.lr_initial", 0.025),
            lr_final=pick("embedding.lr_final", 0.0001),
            min_count=pick("embedding.min_count", 1),
            unigram_power=pick("embedding.unigram_power", 0.75),
            subsample=pick("embedding.subsample", 0.0),
            seed=pick("embedding.seed", derive_seed(seed, "embedding")),
        )
        forest_config = forest.ForestConfig(
            n_trees=pick("forest.n_trees", 100),
            max_depth=pick("forest.max_depth", None),
            min_samples_leaf=pick("forest.min_samples_leaf", 1),
            features_per_split=pick("forest.features_per_split", None),
            seed=pick("forest.seed", derive_seed(seed, "forest")),
        )
        gains = evaluation.GainMap(
            highly_relevant=pick("gains.highly_relevant", 3.0),
            relevant=pick("gains.relevant", 2.0),
            neutral=pick("gains.neutral", 1.0),
            irrelevant=pick("gains.irrelevant", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        embedding=embedding_config,
        forest=forest_config,
        threshold=pick("threshold", 0.5),
        gains=gains,
        seed=seed,
    )


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


def _safe_filename(role: str, taken: set[str]) -> str:
    base = re.sub(r"[^a-z0-9._-]", "_", role) or "role"
    name = f"{base}.json"
    counter = 1
    while name in taken:
        name = f"{base}.{counter}.json"
        counter += 1
    taken.add(name)
    return name


def _is_string_pair(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 2 and all(isinstance(s, str) for s in entry)


def _load_models(models_dir: Path, embedding_model: emb.EmbeddingModel) -> pipeline.ModelBundle:
    manifest_path = models_dir / "manifest.json"
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
        roles = manifest.get("roles")
        if not isinstance(roles, dict) or not roles or not all(
            isinstance(name, str) for name in roles.values()
        ):
            raise ValueError("'roles' must map at least one role name to a file name")
        skipped = manifest.get("skipped", [])
        if not isinstance(skipped, list) or not all(map(_is_string_pair, skipped)):
            raise ValueError("'skipped' must hold [role, reason] string pairs")
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ValueError(f"cannot read model manifest {manifest_path}: {exc}") from None
    classifiers = {}
    for role, name in roles.items():
        classifier = forest.load_classifier(models_dir / name)
        if classifier.role != role:
            raise ValueError(
                f"{models_dir / name}: manifest says role {role!r}, file says {classifier.role!r}"
            )
        if classifier.n_features != embedding_model.dim:
            raise ValueError(
                f"{models_dir / name}: trained on {classifier.n_features}-d features, "
                f"embedding has dimension {embedding_model.dim}"
            )
        classifiers[role] = classifier
    return pipeline.ModelBundle(
        embedding=embedding_model, classifiers=classifiers, skipped_roles=list(map(tuple, skipped))
    )


def _parse_fractions(text: str) -> list[float]:
    fractions = []
    for piece in text.split(","):
        try:
            value = float(piece)
        except ValueError:
            raise ConfigError(f"bad fraction {piece!r}") from None
        if not 0.0 < value < 1.0:
            raise ConfigError(f"fraction {value:g} must lie strictly between 0 and 1")
        fractions.append(value)
    if not fractions:
        raise ConfigError("at least one fraction is required")
    return fractions


def _stage_embeddings(triples, run: RunConfig, out_dir: Path) -> emb.EmbeddingModel:
    model = emb.finalize(emb.train_skipgram(build_corpus(triples), run.embedding))
    out_dir.mkdir(parents=True, exist_ok=True)
    emb.save_embedding(model, out_dir / "embeddings.txt")
    final_loss = model.epoch_losses[-1] if model.epoch_losses else float("nan")
    print(f"vocabulary size: {len(model.vocab)}")
    print(f"epochs: {run.embedding.epochs}")
    print(f"final mean loss: {final_loss:.6f}")
    print(f"wrote {out_dir / 'embeddings.txt'}")
    return model


def _stage_train(labeled, model, run: RunConfig, out_dir: Path) -> pipeline.ModelBundle:
    bundle = pipeline.train_role_models(labeled, model, run.forest)
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    taken: set[str] = set()
    role_files = {}
    for role in sorted(bundle.classifiers):
        role_files[role] = _safe_filename(role, taken)
        forest.save_classifier(bundle.classifiers[role], models_dir / role_files[role])
    manifest = {
        "embedding_dim": model.dim,
        "roles": role_files,
        "skipped": [[role, reason] for role, reason in bundle.skipped_roles],
    }
    with open_atomic(models_dir / "manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"trained roles: {', '.join(sorted(bundle.classifiers))}")
    for role, reason in bundle.skipped_roles:
        print(f"skipped role {role!r}: {reason}")
    print(f"wrote {models_dir}")
    return bundle


def _stage_score(triples, bundle, out_dir: Path, per_role: bool = False) -> None:
    scored = pipeline.rank(pipeline.score_triples(triples, bundle))
    if per_role:
        scored = sorted(scored, key=lambda s: (s.triple.role, -s.score, s.triple.id))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "scores.jsonl"
    with open_atomic(out_path) as f:
        pipeline.write_scored(scored, f)
    print(f"scored {len(scored)} triples -> {out_path}")


def _stage_evaluate(labeled, model, run: RunConfig, fractions, out_dir: Path) -> None:
    split_seed = derive_seed(run.seed, "split")
    runs = {}
    for fraction in fractions:
        train, test = evaluation.split_train_test(
            labeled, fraction, derive_seed(split_seed, f"{fraction:g}")
        )
        bundle = pipeline.train_role_models(train, model, run.forest)
        runs[fraction] = evaluation.evaluate(
            bundle, test, threshold=run.threshold, gains=run.gains
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open_atomic(out_dir / "report.json") as f:
        evaluation.write_reports_json(runs, f)
    with open_atomic(out_dir / "report.csv") as f:
        evaluation.write_reports_csv(runs, f)
    for fraction in sorted(runs):
        aggregate = runs[fraction].aggregate
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
    labeled = load_triples(args.labeled)
    model = emb.load_embedding(args.embeddings)
    _stage_train(labeled, model, run, Path(args.out))
    return EXIT_OK


def cmd_score(args) -> int:
    model = emb.load_embedding(args.embeddings)
    bundle = _load_models(Path(args.models), model)
    triples = load_triples(args.triples)
    _stage_score(triples, bundle, Path(args.out), per_role=args.per_role)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    run = build_run_config(args.config, args.seed)
    fractions = _parse_fractions(args.fractions)
    labeled = load_triples(args.labeled)
    model = emb.load_embedding(args.embeddings)
    _stage_evaluate(labeled, model, run, fractions, Path(args.out))
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
    fractions = _parse_fractions(args.fractions)
    files = _load_many([args.labeled, args.unlabeled] if args.unlabeled else [args.labeled])
    labeled = files[0]
    # scored: the --score-file, else a non-empty unlabeled file, else the labeled one
    to_score = load_triples(args.score_file) if args.score_file else files[-1] or labeled
    out_dir = Path(args.out)
    model = _stage_embeddings(chain(*files), run, out_dir)
    bundle = _stage_train(labeled, model, run, out_dir)
    _stage_score(to_score, bundle, out_dir)
    _stage_evaluate(labeled, model, run, fractions, out_dir)
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
    _add_common(p)
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
