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

    Per role: binarize labels (neutral dropped), featurize the trainable
    triples in one call, drop the zero rows (all-OOV contexts), and train
    on the survivors in canonical id order with a per-role seed derived
    from the forest seed. Roles that end up with fewer than two samples
    in either class are recorded as skipped instead of failing the run;
    zero trainable roles is an error.
    """
    if not embedding.finalized:
        raise ValueError("train_role_models requires a finalized embedding")
    by_role: dict[str, list[ContextualTriple]] = {}
    for triple in labeled:
        if triple.label is None:
            raise ValueError(f"triple {triple.id!r} has no label")
        by_role.setdefault(triple.role, []).append(triple)

    classifiers: dict[str, RoleClassifier] = {}
    skipped: list[tuple[str, str]] = []
    for role in sorted(by_role):
        ordered = sorted(by_role[role], key=lambda t: t.id)
        pairs = [(t, b) for t in ordered if (b := binarize_label(t.label)) is not None]
        trainable = [t for t, _ in pairs]
        X, nonzero = featurize([t.sentences for t in trainable], embedding)
        if not nonzero.all():
            dropped = [t.id for t, keep in zip(trainable, nonzero) if not keep]
            logger.warning("role %s: %d all-OOV training triples excluded: %s",
                           role, len(dropped), ", ".join(dropped))
        y = np.array([b for _, b in pairs], dtype=np.int64)[nonzero]
        if not len(y):
            skipped.append((role, SKIP_NO_TRAINABLE))
            continue
        pos = int(y.sum())
        neg = len(y) - pos
        if pos == 0 or neg == 0:
            skipped.append((role, SKIP_SINGLE_CLASS))
            continue
        if pos < 2 or neg < 2:
            skipped.append((role, SKIP_TOO_FEW))
            continue
        role_config = replace(forest_config, seed=derive_seed(forest_config.seed, role))
        classifiers[role] = train_forest(X[nonzero], y, role_config, role=role)
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
