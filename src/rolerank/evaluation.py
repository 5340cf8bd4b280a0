"""Train/test splitting and ranking metrics.

Precision/recall/F1 are computed for the positive class at a score
threshold (default 0.5). NDCG uses the standard exponential-gain form
(2^gain - 1) / log2(rank + 1) with graded gains that preserve the
required order highly relevant > relevant > neutral > irrelevant.
Undefined metrics (no predicted positives, an ideal DCG of 0, no test
triple) are reported as flagged conventional values rather than omitted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence

import numpy as np

from .corpus import ContextualTriple, RelevanceLabel
from .pipeline import Features, ModelBundle, ScoredTriple, binarize_label, rank, score_triples
from .seeds import derive_seed, mix

AGGREGATE_ROLE = "ALL"


@dataclass(frozen=True)
class GainMap:
    """Gain per relevance grade; must strictly decrease down the grades."""

    highly_relevant: float = 3.0
    relevant: float = 2.0
    neutral: float = 1.0
    irrelevant: float = 0.0

    def __post_init__(self):
        if not (self.highly_relevant > self.relevant > self.neutral > self.irrelevant):
            raise ValueError("gains must satisfy highly_relevant > relevant > neutral > irrelevant")
        if self.irrelevant < 0:
            raise ValueError("gains must be nonnegative")
        # with the order and sign checks, this bound keeps every gain finite,
        # and 2 ** gain and a DCG sum over fewer than 2**511 items too
        if not self.highly_relevant <= 512:
            raise ValueError("gains must be at most 512")

    def for_label(self, label: RelevanceLabel) -> float:
        return getattr(self, label.name.lower())


@dataclass(frozen=True)
class PRFResult:
    precision: float
    recall: float
    f1: float
    counts: tuple[int, int, int, int]  # (TP, FP, FN, TN)
    precision_defined: bool = True
    recall_defined: bool = True


@dataclass(frozen=True, kw_only=True)
class EvalReport(PRFResult):
    """One role's (or the aggregate's) P/R/F1 plus its NDCG."""

    role: str
    ndcg: float
    threshold: float
    ndcg_defined: bool = True


@dataclass(frozen=True)
class EvalRun:
    per_role: dict[str, EvalReport]
    aggregate: EvalReport


def split_train_test(
    labeled: Sequence[ContextualTriple], fraction: float, seed: int
) -> tuple[list[ContextualTriple], list[ContextualTriple]]:
    """Stratified split: ceil(fraction * n) of each (role, class) stratum trains.

    The fraction is read as its shortest decimal form and the product is
    exact, so 0.55 of 100 trains 55 (the float product, 55.00000000000001,
    would take 56).

    Strata are keyed by role and binarized label (neutral its own
    stratum) and ordered canonically by triple id. Each stratum is then
    shuffled by sorting its members by ``mix(derive_seed(seed,
    "role|label"), member index)``, ties keeping id order; so the same
    seed always yields the same partition, whatever the input order and
    numpy version.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    exact = Fraction(str(fraction))
    strata: dict[tuple[str, int | None], list[ContextualTriple]] = {}
    for triple in labeled:
        if triple.label is None:
            raise ValueError(f"triple {triple.id!r} has no label")
        strata.setdefault((triple.role, binarize_label(triple.label)), []).append(triple)

    train: list[ContextualTriple] = []
    test: list[ContextualTriple] = []
    for (role, target), members in sorted(strata.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        members = sorted(members, key=lambda t: t.id)
        keys = mix(derive_seed(seed, f"{role}|{target}"), np.arange(len(members), dtype=np.uint64))
        order = np.argsort(keys, kind="stable")
        take = math.ceil(exact * len(members))
        for pos, idx in enumerate(order):
            (train if pos < take else test).append(members[idx])
    train.sort(key=lambda t: t.id)
    test.sort(key=lambda t: t.id)
    return train, test


def precision_recall_f1(
    scored: Sequence[ScoredTriple], threshold: float = 0.5
) -> PRFResult:
    """Positive-class P/R/F1 at the threshold (predict positive iff score >= t).

    Every scored triple must carry a binarizable gold label; neutral gold
    is excluded upstream. Undefined precision/recall (empty denominator)
    is reported as 0.0 with the matching flag cleared.
    """
    tp = fp = fn = tn = 0
    for item in scored:
        if item.triple.label is None:
            raise ValueError(f"triple {item.triple.id!r} has no label")
        gold = binarize_label(item.triple.label)
        if gold is None:
            raise ValueError(
                f"triple {item.triple.id!r} has a neutral gold label; exclude it upstream"
            )
        predicted = item.score >= threshold
        if predicted and gold == 1:
            tp += 1
        elif predicted and gold == 0:
            fp += 1
        elif not predicted and gold == 1:
            fn += 1
        else:
            tn += 1
    return _prf_from_counts(tp, fp, fn, tn)


def _prf_from_counts(tp: int, fp: int, fn: int, tn: int) -> PRFResult:
    """P/R/F1 of confusion counts; an empty denominator gives 0.0, flagged."""
    precision_defined = tp + fp > 0
    recall_defined = tp + fn > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return PRFResult(
        precision=precision,
        recall=recall,
        f1=f1,
        counts=(tp, fp, fn, tn),
        precision_defined=precision_defined,
        recall_defined=recall_defined,
    )


def dcg(gains: Sequence[float]) -> float:
    return sum((2.0 ** gain - 1.0) / math.log2(i + 2) for i, gain in enumerate(gains))


def _ndcg(ranking: Sequence[ContextualTriple], gains: GainMap) -> tuple[float, bool]:
    """``ndcg`` of the ranking and whether it is defined, that is whether
    its IDCG is positive; an IDCG of 0 gives 1.0, flagged undefined."""
    if not ranking:
        raise ValueError("ranking is empty")
    gain_values = []
    for triple in ranking:
        if triple.label is None:
            raise ValueError(f"triple {triple.id!r} has no label")
        gain_values.append(gains.for_label(triple.label))
    idcg = dcg(sorted(gain_values, reverse=True))
    return (dcg(gain_values) / idcg, True) if idcg > 0.0 else (1.0, False)


def ndcg(ranking: Sequence[ContextualTriple], gains: GainMap = GainMap()) -> float:
    """Normalized discounted cumulative gain of a ranked list of labeled triples.

    DCG sums (2^gain - 1) / log2(position + 1) over the ranking; the ideal
    DCG re-sorts the same gains in descending order. A ranking whose IDCG
    is 0 returns 1.0 by convention: one with no positive gain anywhere, or
    whose gains are too small for 2^gain - 1 to leave 0.0.
    """
    return _ndcg(ranking, gains)[0]


def evaluate(
    bundle: ModelBundle,
    test: Sequence[ContextualTriple],
    threshold: float = 0.5,
    gains: GainMap = GainMap(),
    features: Features | None = None,
) -> EvalRun:
    """Score and rank the test triples in one pass, then compute the metrics per role.

    ``rank`` orders by (-score, id), so each role's share of the ranking
    is that role ranked alone. P/R/F1 cover the binarizable labels only;
    NDCG covers all four grades. Roles without a trained classifier still
    appear (their triples score 0.0). The aggregate micro-averages the
    confusion counts and macro-averages NDCG over roles. ``features`` is
    as in ``score_triples``.
    """
    by_role: dict[str, list[ScoredTriple]] = {}
    for item in rank(score_triples(test, bundle, features)):
        by_role.setdefault(item.triple.role, []).append(item)

    per_role: dict[str, EvalReport] = {}
    for role in sorted(by_role):
        ranked = by_role[role]
        binarizable = [s for s in ranked if binarize_label(s.triple.label) is not None]
        prf = precision_recall_f1(binarizable, threshold)
        value, defined = _ndcg([s.triple for s in ranked], gains)
        per_role[role] = EvalReport(
            role=role,
            ndcg=value,
            threshold=threshold,
            ndcg_defined=defined,
            **vars(prf),
        )

    reports = per_role.values()
    totals = [sum(r.counts[i] for r in reports) for i in range(4)]
    aggregate = EvalReport(
        role=AGGREGATE_ROLE,
        ndcg=sum(r.ndcg for r in reports) / len(reports) if reports else 1.0,
        threshold=threshold,
        ndcg_defined=bool(reports) and all(r.ndcg_defined for r in reports),
        **vars(_prf_from_counts(*totals)),
    )
    return EvalRun(per_role=per_role, aggregate=aggregate)


def _report_to_obj(report: EvalReport) -> dict:
    return {**vars(report), "counts": dict(zip(("tp", "fp", "fn", "tn"), report.counts))}


def write_reports_json(runs: Mapping[float, EvalRun], out: IO[str]) -> None:
    """One JSON document: per-fraction blocks with per-role and aggregate reports."""
    doc = {
        "fractions": [
            {
                "fraction": fraction,
                "roles": {
                    role: _report_to_obj(report)
                    for role, report in sorted(run.per_role.items())
                },
                "aggregate": _report_to_obj(run.aggregate),
            }
            for fraction, run in sorted(runs.items())
        ]
    }
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


def write_reports_csv(runs: Mapping[float, EvalRun], out: IO[str]) -> None:
    """Flat rows (role, fraction, precision, recall, f1, ndcg), aggregate last.
    A fraction that left no test triple has no row: no role report and,
    as on stdout, no aggregate numbers (``report.json`` flags them undefined)."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["role", "fraction", "precision", "recall", "f1", "ndcg"])
    roles = sorted({role for run in runs.values() for role in run.per_role})
    for role in roles + [AGGREGATE_ROLE]:
        for fraction, run in sorted(runs.items()):
            report = run.aggregate if role == AGGREGATE_ROLE else run.per_role.get(role)
            if report is None or not run.per_role:  # no role report: no test triple
                continue
            writer.writerow(
                [
                    role,
                    f"{fraction:g}",
                    f"{report.precision:.6f}",
                    f"{report.recall:.6f}",
                    f"{report.f1:.6f}",
                    f"{report.ndcg:.6f}",
                ]
            )
