"""Per-role training, scoring and ranking of contextual triples.

Labels binarize as highly relevant / relevant -> 1, irrelevant -> 0;
neutral triples carry ranking gain only and never enter training. Each
role gets its own forest over the context vectors of its labeled
triples. Each set of triples is featurized in one ``featurize`` call,
and its rows are grouped by role with index lists. Scoring is total: a
triple whose role has no classifier scores exactly 0.0 (the role in a
query must match exactly for non-zero relevance), and a triple whose
context has no known word falls back to the uninformative 0.5.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .corpus import ContextualTriple, RelevanceLabel
from .embedding import EmbeddingModel
from .features import featurize
from .forest import ForestConfig, RoleClassifier, predict_proba, train_forest
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
) -> ModelBundle:
    """Train one forest per role over the context vectors of the labeled triples.

    Binarize labels (neutral dropped), featurize every trainable triple in
    one call in canonical id order, and group the rows by role. Per role:
    drop the zero rows (all-OOV contexts) and train on the survivors with
    a per-role seed derived from the forest seed. Roles that end up with
    fewer than two samples in either class are recorded as skipped
    instead of failing the run; zero trainable roles is an error.
    """
    for triple in labeled:
        if triple.label is None:
            raise ValueError(f"triple {triple.id!r} has no label")
    trainable = sorted((t for t in labeled if binarize_label(t.label) is not None), key=lambda t: t.id)
    X, nonzero = featurize([t.sentences for t in trainable], embedding)
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
        raise ValueError("no role has enough labeled data to train a classifier")
    return ModelBundle(embedding=embedding, classifiers=classifiers, skipped_roles=skipped)


def score_triples(
    triples: Iterable[ContextualTriple], bundle: ModelBundle
) -> list[ScoredTriple]:
    """Score each triple with its role's classifier, in input order.

    Unknown roles score exactly 0.0 (exact role match is required for a
    non-zero score). The known-role triples are featurized in one call;
    zero rows score the 0.5 fallback, and the rest are scored with one
    forest call per role.
    """
    triples = list(triples)
    known = [i for i, triple in enumerate(triples) if triple.role in bundle.classifiers]
    X, nonzero = featurize([triples[i].sentences for i in known], bundle.embedding)
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
