"""Per-role training, scoring and ranking of contextual triples.

Labels binarize as highly relevant / relevant -> 1, irrelevant -> 0;
neutral triples carry ranking gain only and never enter training. Each
role gets its own forest over the context vectors of its labeled
triples. Each set of triples is featurized in one ``featurize`` call,
and its rows are grouped by role with index lists. A run that trains,
scores and evaluates on subsets of one labeled set featurizes it once
(``featurize_triples``) and passes the result as ``features``; a row
does not depend on the other contexts featurized with it, so the
results are the same. Scoring is total: a triple whose role has no
classifier scores exactly 0.0 (the role in a query must match exactly
for non-zero relevance), and a triple whose context has no known word
falls back to the uninformative 0.5.

A trained bundle lives on disk as a models directory, written by
``save_bundle`` and read back by ``load_bundle``: one ``<role>.json``
forest per trained role and ``manifest.json``, which maps each role to
its file name, lists the skipped roles with their reasons, and records
the sha256 of every model file (``models_sha256``) and of the
``embeddings.txt`` the models were trained on (``embeddings_sha256``).
The embeddings file itself is written and passed separately.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .corpus import ContextualTriple, RelevanceLabel, open_atomic
from .embedding import EmbeddingModel, load_embedding
from .features import featurize
from .forest import ForestConfig, RoleClassifier, load_classifier, predict_proba, save_classifier, train_forest
from .seeds import derive_seed

logger = logging.getLogger(__name__)

OOV_FALLBACK_SCORE = 0.5
UNKNOWN_ROLE_SCORE = 0.0

# skip reasons recorded in ModelBundle.skipped_roles
SKIP_NO_TRAINABLE = "no trainable labels"
SKIP_SINGLE_CLASS = "single-class"
SKIP_TOO_FEW = "fewer than 2 samples in a class"


@dataclass(frozen=True)
class ScoredTriple:
    triple: ContextualTriple
    score: float
    oov_fallback: bool = False


@dataclass
class ModelBundle:
    embedding: EmbeddingModel
    classifiers: dict[str, RoleClassifier]
    skipped_roles: list[tuple[str, str]]


# (row of each triple id, X, nonzero), as featurize_triples returns them
Features = tuple[dict[str, int], np.ndarray, np.ndarray]


def featurize_triples(triples: Sequence[ContextualTriple], embedding: EmbeddingModel) -> Features:
    """``featurize`` the triples' contexts in one call, with each id's row."""
    X, nonzero = featurize([t.sentences for t in triples], embedding)
    return {t.id: row for row, t in enumerate(triples)}, X, nonzero


def _features(triples, embedding: EmbeddingModel, features: Features | None):
    """(X, nonzero) of the triples: featurized now, or their rows of ``features``."""
    if features is None:
        return featurize([t.sentences for t in triples], embedding)
    row_of, X, nonzero = features
    rows = [row_of[t.id] for t in triples]
    return X[rows], nonzero[rows]


def binarize_label(label: RelevanceLabel) -> int | None:
    """Positive for (highly) relevant, negative for irrelevant, None for neutral."""
    if label in (RelevanceLabel.HIGHLY_RELEVANT, RelevanceLabel.RELEVANT):
        return 1
    if label is RelevanceLabel.IRRELEVANT:
        return 0
    return None


def train_role_models(
    labeled: Sequence[ContextualTriple],
    embedding: EmbeddingModel,
    forest_config: ForestConfig,
    features: Features | None = None,
) -> ModelBundle:
    """Train one forest per role over the context vectors of the labeled triples.

    Binarize labels (neutral dropped), featurize every trainable triple in
    one call in canonical id order, and group the rows by role. Per role:
    drop the zero rows (all-OOV contexts) and train on the survivors with
    a per-role seed derived from the forest seed. Roles that end up with
    fewer than two samples in either class are recorded as skipped
    instead of failing the run; zero trainable roles is an error that
    names each role's reason. ``features``, from ``featurize_triples``
    over a superset of ``labeled``, supplies the rows featurize would.
    """
    for triple in labeled:
        if triple.label is None:
            raise ValueError(f"triple {triple.id!r} has no label")
    trainable = sorted((t for t in labeled if binarize_label(t.label) is not None), key=lambda t: t.id)
    X, nonzero = _features(trainable, embedding, features)
    y = np.array([binarize_label(t.label) for t in trainable], dtype=np.int64)
    rows_by_role: dict[str, list[int]] = {t.role: [] for t in labeled}
    for row, triple in enumerate(trainable):
        rows_by_role[triple.role].append(row)

    classifiers: dict[str, RoleClassifier] = {}
    skipped: list[tuple[str, str]] = []
    for role in sorted(rows_by_role):
        rows = rows_by_role[role]
        dropped = [trainable[row].id for row in rows if not nonzero[row]]
        if dropped:
            logger.warning("role %s: %d all-OOV training triples excluded: %s",
                           role, len(dropped), ", ".join(dropped))
        rows = [row for row in rows if nonzero[row]]
        if not rows:
            skipped.append((role, SKIP_NO_TRAINABLE))
            continue
        pos = int(y[rows].sum())
        neg = len(rows) - pos
        if pos == 0 or neg == 0:
            skipped.append((role, SKIP_SINGLE_CLASS))
            continue
        if pos < 2 or neg < 2:
            skipped.append((role, SKIP_TOO_FEW))
            continue
        role_config = replace(forest_config, seed=derive_seed(forest_config.seed, role))
        classifiers[role] = train_forest(X[rows], y[rows], role_config, role=role)
    if not classifiers:
        reasons = "".join(f"; skipped role {role!r}: {reason}" for role, reason in skipped)
        raise ValueError(f"no role has enough labeled data to train a classifier{reasons}")
    return ModelBundle(embedding=embedding, classifiers=classifiers, skipped_roles=skipped)


def score_triples(
    triples: Iterable[ContextualTriple], bundle: ModelBundle, features: Features | None = None
) -> list[ScoredTriple]:
    """Score each triple with its role's classifier, in input order.

    Unknown roles score exactly 0.0 (exact role match is required for a
    non-zero score). The known-role triples are featurized in one call;
    zero rows score the 0.5 fallback, and the rest are scored with one
    forest call per role. ``features`` is as in ``train_role_models``.
    """
    triples = list(triples)
    known = [i for i, triple in enumerate(triples) if triple.role in bundle.classifiers]
    X, nonzero = _features([triples[i] for i in known], bundle.embedding, features)
    scores = [UNKNOWN_ROLE_SCORE] * len(triples)
    fallback = [False] * len(triples)
    by_role: dict[str, list[int]] = {}
    for row, i in enumerate(known):
        if nonzero[row]:
            by_role.setdefault(triples[i].role, []).append(row)
        else:
            scores[i], fallback[i] = OOV_FALLBACK_SCORE, True
    for role, rows in by_role.items():
        predicted = predict_proba(bundle.classifiers[role], X[rows])
        for row, score in zip(rows, predicted.tolist()):
            scores[known[row]] = score
    return [ScoredTriple(t, s, f) for t, s, f in zip(triples, scores, fallback)]


def rank(scored: Iterable[ScoredTriple]) -> list[ScoredTriple]:
    """Order by decreasing score; equal scores order by ascending triple id."""
    return sorted(scored, key=lambda s: (-s.score, s.triple.id))


def write_scored(scored: Iterable[ScoredTriple], out: IO[str]) -> None:
    for item in scored:
        out.write(
            json.dumps(
                {
                    "id": item.triple.id,
                    "role": item.triple.role,
                    "score": item.score,
                    "oov_fallback": item.oov_fallback,
                }
            )
            + "\n"
        )


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


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_bundle(bundle: ModelBundle, models_dir, embeddings_path) -> None:
    """Write each classifier and then the manifest (atomically) into
    ``models_dir``, recording the sha256 of ``embeddings_path``, the
    embeddings file the bundle's models were trained on."""
    models_dir = Path(models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    taken = {"manifest.json"}  # no role's model may overwrite the manifest
    role_files = {}
    for role in sorted(bundle.classifiers):
        role_files[role] = _safe_filename(role, taken)
        save_classifier(bundle.classifiers[role], models_dir / role_files[role])
    manifest = {
        "embeddings_sha256": _sha256(embeddings_path),
        "models_sha256": {role: _sha256(models_dir / name) for role, name in role_files.items()},
        "roles": role_files,
        "skipped": [[role, reason] for role, reason in bundle.skipped_roles],
    }
    with open_atomic(models_dir / "manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bundle(models_dir, embeddings_path) -> ModelBundle:
    """The embeddings and the models a manifest lists, if trained on those
    embeddings and unchanged since (each file's sha256 as recorded)."""
    models_dir = Path(models_dir)
    embedding_model = load_embedding(embeddings_path)
    manifest_path = models_dir / "manifest.json"
    data = manifest_path.read_bytes()  # an OSError names the path and exits 2, as unreadable input
    try:
        manifest = json.loads(data.decode("utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
        roles = manifest.get("roles")
        if not isinstance(roles, dict) or not roles:
            raise ValueError("'roles' must map at least one role name to a file name")
        model_hashes = manifest.get("models_sha256")
        for name in roles.values():  # a plain name: no separator, so no other directory
            if not (isinstance(name, str) and Path(name).name == name and (models_dir / name).is_file()):
                raise ValueError(f"'roles' lists {name!r}, not the plain name of a file in {models_dir}")
        skipped = manifest.get("skipped", [])
        if not isinstance(skipped, list) or not all(map(_is_string_pair, skipped)):
            raise ValueError("'skipped' must hold [role, reason] string pairs")
        if manifest.get("embeddings_sha256") != _sha256(embeddings_path):
            raise ValueError(f"'embeddings_sha256' is missing or is not the sha256 of {embeddings_path}")
    # ValueError covers bad UTF-8 and bad JSON; RecursionError too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read model manifest {manifest_path}: {exc}") from None
    classifiers = {}
    for role, name in roles.items():
        classifier = load_classifier(models_dir / name)
        if classifier.role != role:
            raise ValueError(
                f"{manifest_path} says {models_dir / name} holds role {role!r}; "
                f"it holds {classifier.role!r}"
            )
        if classifier.n_features != embedding_model.dim:
            raise ValueError(
                f"{models_dir / name}: trained on {classifier.n_features}-d features, "
                f"embedding has dimension {embedding_model.dim}"
            )
        # checked once the file validates, so that a malformed one is named with its fault
        if not isinstance(model_hashes, dict) or model_hashes.get(role) != _sha256(models_dir / name):
            raise ValueError(
                f"{manifest_path}: 'models_sha256' is missing or lacks the sha256 of {models_dir / name}"
            )
        classifiers[role] = classifier
    return ModelBundle(embedding_model, classifiers, list(map(tuple, skipped)))
