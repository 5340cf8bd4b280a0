import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rolerank import pipeline
from rolerank.corpus import ContextualTriple, RelevanceLabel
from rolerank.evaluation import (
    GainMap,
    dcg,
    evaluate,
    ndcg,
    precision_recall_f1,
    split_train_test,
    write_reports_csv,
    write_reports_json,
)
from rolerank.features import featurize
from rolerank.forest import ForestConfig
from rolerank.pipeline import ScoredTriple, binarize_label, train_role_models
from synth import split_order_reference, unit_vector_model

L = RelevanceLabel
LABELS = (L.IRRELEVANT, L.NEUTRAL, L.RELEVANT, L.HIGHLY_RELEVANT)


def triple(tid, role="issuer", label=None, words="w"):
    return ContextualTriple(
        id=tid, head="H", role=role, tail="T", sentences=(words,), label=label
    )


def scored(tid, score, label, role="issuer"):
    return ScoredTriple(triple=triple(tid, role=role, label=label), score=score)


class TestGainMap:
    def test_defaults_ordered(self):
        gains = GainMap()
        assert gains.for_label(L.HIGHLY_RELEVANT) == 3.0
        assert gains.for_label(L.IRRELEVANT) == 0.0

    def test_order_violation_rejected(self):
        with pytest.raises(ValueError):
            GainMap(highly_relevant=1.0, relevant=2.0)
        with pytest.raises(ValueError):
            GainMap(neutral=0.0, irrelevant=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GainMap(irrelevant=-1.0)

    def test_bounded_above(self):
        assert GainMap(highly_relevant=512.0).highly_relevant == 512.0
        for top in (513.0, math.inf):
            with pytest.raises(ValueError, match="at most 512"):
                GainMap(highly_relevant=top)


class TestSplitTrainTest:
    def balanced(self, n=100, role="issuer"):
        # even ids positive, odd negative
        return [
            triple(f"{role}-{i:03d}", role=role, label=L.RELEVANT if i % 2 == 0 else L.IRRELEVANT)
            for i in range(n)
        ]

    def test_half_split_stratified(self):
        train, test = split_train_test(self.balanced(100), 0.5, seed=1)
        assert len(train) == 50 and len(test) == 50
        train_pos = sum(1 for t in train if t.label is L.RELEVANT)
        assert train_pos == 25

    def test_ceil_per_stratum(self):
        triples = self.balanced(10)  # 5 positive, 5 negative
        train, test = split_train_test(triples, 0.9, seed=2)
        assert len(train) == 10  # ceil(0.9 * 5) = 5 per stratum
        assert len(test) == 0

    def test_partition(self):
        triples = self.balanced(60)
        train, test = split_train_test(triples, 0.3, seed=3)
        assert sorted(t.id for t in train + test) == sorted(t.id for t in triples)
        assert not {t.id for t in train} & {t.id for t in test}

    def test_deterministic(self):
        triples = self.balanced(40)
        a = split_train_test(triples, 0.25, seed=7)
        b = split_train_test(triples, 0.25, seed=7)
        assert a == b

    def test_input_order_irrelevant(self):
        triples = self.balanced(40)
        a = split_train_test(triples, 0.25, seed=7)
        b = split_train_test(list(reversed(triples)), 0.25, seed=7)
        assert a == b

    def test_seed_changes_split(self):
        triples = self.balanced(40)
        a = split_train_test(triples, 0.5, seed=1)
        b = split_train_test(triples, 0.5, seed=2)
        assert a != b

    def test_neutral_its_own_stratum(self):
        triples = self.balanced(20) + [
            triple(f"n-{i}", label=L.NEUTRAL) for i in range(10)
        ]
        train, test = split_train_test(triples, 0.5, seed=4)
        assert sum(1 for t in train if t.label is L.NEUTRAL) == 5

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ValueError):
            split_train_test(self.balanced(10), fraction, seed=0)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="no label"):
            split_train_test([triple("x")], 0.5, seed=0)

    def test_fraction_read_as_written(self):
        # 100 per class: the float product 0.55 * 100 is 55.00000000000001
        train, _ = split_train_test(self.balanced(200), 0.55, seed=7)
        assert len(train) == 110

    @pytest.mark.parametrize("fraction, seed", [(0.3, 1), (0.5, 9), (0.9, 4)])
    def test_strata_taken_in_reference_order(self, fraction, seed):
        """Each stratum, sorted by id, trains its first members in
        ``split_order_reference``'s order."""
        triples = (self.balanced(40) + self.balanced(31, role="trustee")
                   + [triple(f"n-{i:02d}", label=L.NEUTRAL) for i in range(7)])
        train, _ = split_train_test(triples, fraction, seed)
        strata: dict = {}
        for t in sorted(triples, key=lambda t: t.id):
            strata.setdefault((t.role, binarize_label(t.label)), []).append(t.id)
        assert len(strata) == 5
        expected = []
        for (role, target), ids in strata.items():
            take = math.ceil(Fraction(str(fraction)) * len(ids))
            expected += [ids[i] for i in split_order_reference(seed, role, target, len(ids))[:take]]
        assert [t.id for t in train] == sorted(expected)

    @given(st.integers(1, 99), st.integers(1, 2000))
    @example(55, 100)
    @example(7, 100)
    @settings(max_examples=300, deadline=None)
    def test_train_count_is_exact_ceiling(self, k, n):
        members = [triple(f"t{i:04d}", label=L.RELEVANT) for i in range(n)]
        train, test = split_train_test(members, k / 100, seed=0)
        assert len(train) == math.ceil(Fraction(k, 100) * n)
        assert len(train) + len(test) == n


class TestPrecisionRecallF1:
    def test_hand_counts(self):
        items = [
            scored("a", 0.9, L.RELEVANT),       # TP
            scored("b", 0.8, L.HIGHLY_RELEVANT),  # TP
            scored("c", 0.7, L.IRRELEVANT),     # FP
            scored("d", 0.2, L.RELEVANT),       # FN
            scored("e", 0.1, L.IRRELEVANT),     # TN
        ]
        result = precision_recall_f1(items, threshold=0.5)
        assert result.counts == (2, 1, 1, 1)
        assert result.precision == pytest.approx(2 / 3)
        assert result.recall == pytest.approx(2 / 3)
        assert result.f1 == pytest.approx(2 / 3)

    def test_perfect(self):
        items = [scored("a", 0.9, L.RELEVANT), scored("b", 0.1, L.IRRELEVANT)]
        result = precision_recall_f1(items)
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)

    def test_no_predicted_positives_flagged(self):
        items = [scored("a", 0.1, L.RELEVANT), scored("b", 0.2, L.IRRELEVANT)]
        result = precision_recall_f1(items)
        assert not result.precision_defined
        assert result.precision == 0.0
        assert result.recall == 0.0  # defined: one actual positive, missed

    def test_threshold_inclusive(self):
        items = [scored("a", 0.5, L.RELEVANT)]
        assert precision_recall_f1(items, threshold=0.5).counts == (1, 0, 0, 0)

    def test_counts_sum_to_population(self):
        rng = np.random.default_rng(0)
        items = [
            scored(f"t{i}", float(rng.random()), L.RELEVANT if rng.random() < 0.5 else L.IRRELEVANT)
            for i in range(57)
        ]
        result = precision_recall_f1(items)
        assert sum(result.counts) == 57

    def test_neutral_gold_rejected(self):
        with pytest.raises(ValueError, match="neutral"):
            precision_recall_f1([scored("a", 0.5, L.NEUTRAL)])

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="'a' has no label"):
            precision_recall_f1([scored("a", 0.5, None)])


def brute_force_ndcg(gain_values):
    """Oracle: IDCG as the max DCG over every permutation (n <= 6)."""

    def dcg_of(seq):
        return sum((2.0 ** seq[i] - 1.0) / math.log2(i + 2) for i in range(len(seq)))

    best = max(dcg_of(p) for p in itertools.permutations(gain_values))
    if best == 0.0:
        return 1.0
    return dcg_of(gain_values) / best


class TestNdcg:
    def ranked(self, labels):
        return [triple(f"t{i}", label=lab) for i, lab in enumerate(labels)]

    def test_gold_order_is_one(self):
        ranking = self.ranked([L.HIGHLY_RELEVANT, L.RELEVANT, L.NEUTRAL, L.IRRELEVANT])
        assert ndcg(ranking) == pytest.approx(1.0)

    def test_two_items_hand_value(self):
        ranking = self.ranked([L.IRRELEVANT, L.HIGHLY_RELEVANT])  # gains 0, 3
        assert ndcg(ranking) == pytest.approx(0.6309297535714574, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(88)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            labels = [LABELS[i] for i in rng.integers(0, 4, size=n)]
            ranking = self.ranked(labels)
            gains = [GainMap().for_label(lab) for lab in labels]
            assert ndcg(ranking) == pytest.approx(brute_force_ndcg(gains), abs=1e-12)

    def test_all_irrelevant_convention(self):
        assert ndcg(self.ranked([L.IRRELEVANT, L.IRRELEVANT])) == 1.0

    def test_equal_gain_permutation_invariant(self):
        ranking = self.ranked([L.RELEVANT, L.RELEVANT, L.IRRELEVANT])
        swapped = [ranking[1], ranking[0], ranking[2]]  # distinct triples, same gains
        assert ndcg(swapped) == ndcg(ranking)

    def test_in_unit_interval_and_one_iff_sorted(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            labels = [LABELS[i] for i in rng.integers(0, 4, size=rng.integers(1, 10))]
            value = ndcg(self.ranked(labels))
            assert 0.0 <= value <= 1.0
            gains = [GainMap().for_label(lab) for lab in labels]
            if all(a >= b for a, b in zip(gains, gains[1:])):
                assert value == pytest.approx(1.0)
            elif any(g > 0 for g in gains):
                assert value < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ndcg([])

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="label"):
            ndcg([triple("x")])

    @given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_oracle_property(self, labels):
        ranking = self.ranked(list(labels))
        gains = [GainMap().for_label(lab) for lab in labels]
        assert ndcg(ranking) == pytest.approx(brute_force_ndcg(gains), abs=1e-12)


def test_dcg_hand_value():
    assert dcg([3.0, 0.0]) == pytest.approx(7.0)
    assert dcg([0.0, 3.0]) == pytest.approx(7.0 / math.log2(3))


@pytest.fixture(scope="module")
def setup():
    model = unit_vector_model([f"word{i}" for i in range(30)], dim=6, seed=42)
    labeled = []
    for role in ("issuer", "trustee"):
        for i in range(16):
            positive = i % 2 == 0
            words = " ".join(
                f"word{(i + j) % 5}" if positive else f"word{5 + (i + j) % 5}"
                for j in range(4)
            )
            labeled.append(
                triple(
                    f"{role}-{i:02d}",
                    role=role,
                    label=L.RELEVANT if positive else L.IRRELEVANT,
                    words=words,
                )
            )
    bundle = train_role_models(labeled, model, ForestConfig(n_trees=20, seed=5))
    return model, labeled, bundle


class TestEvaluate:
    def test_separable_dataset_perfect(self, setup):
        _, labeled, bundle = setup
        run = evaluate(bundle, labeled)
        for report in run.per_role.values():
            assert report.f1 == pytest.approx(1.0)
            assert report.ndcg == pytest.approx(1.0)
        assert run.aggregate.f1 == pytest.approx(1.0)

    def test_role_without_classifier_reported(self, setup):
        _, labeled, bundle = setup
        extra = [
            triple("g-0", role="guarantor", label=L.RELEVANT, words="word0"),
            triple("g-1", role="guarantor", label=L.IRRELEVANT, words="word9"),
        ]
        run = evaluate(bundle, labeled + extra)
        report = run.per_role["guarantor"]
        # both score 0.0: the positive is missed, the negative is correct
        assert report.counts == (0, 0, 1, 1)
        assert not report.precision_defined

    def test_aggregate_micro_counts(self, setup):
        _, labeled, bundle = setup
        run = evaluate(bundle, labeled)
        summed = tuple(
            sum(report.counts[i] for report in run.per_role.values()) for i in range(4)
        )
        assert run.aggregate.counts == summed

    def test_aggregate_ndcg_macro_mean(self, setup):
        _, labeled, bundle = setup
        run = evaluate(bundle, labeled)
        mean = sum(r.ndcg for r in run.per_role.values()) / len(run.per_role)
        assert run.aggregate.ndcg == pytest.approx(mean)

    def test_one_featurize_call(self, setup, monkeypatch):
        model, labeled, bundle = setup
        calls = []

        def spy(contexts, embedding):
            calls.append(len(contexts))
            return featurize(contexts, embedding)

        monkeypatch.setattr(pipeline, "featurize", spy)
        extra = [triple("g-0", role="guarantor", label=L.RELEVANT, words="word0")]
        run = evaluate(bundle, labeled + extra)
        assert sorted(run.per_role) == ["guarantor", "issuer", "trustee"]
        assert calls == [len(labeled)]  # the unknown role's triple is not featurized

    def test_no_test_triple_flags_ndcg_undefined(self, setup):
        _, _, bundle = setup
        run = evaluate(bundle, [])
        assert run.per_role == {}
        assert run.aggregate.ndcg == 1.0 and not run.aggregate.ndcg_defined
        assert not run.aggregate.precision_defined and not run.aggregate.recall_defined

    def test_unlabeled_test_triple_rejected(self, setup):
        _, _, bundle = setup
        with pytest.raises(ValueError, match="no label"):
            evaluate(bundle, [triple("x")])

    def test_report_writers(self, setup):
        _, labeled, bundle = setup
        runs = {0.5: evaluate(bundle, labeled)}
        json_buf = io.StringIO()
        write_reports_json(runs, json_buf)
        doc = json.loads(json_buf.getvalue())
        assert doc["fractions"][0]["fraction"] == 0.5
        assert "issuer" in doc["fractions"][0]["roles"]
        aggregate = doc["fractions"][0]["aggregate"]
        assert aggregate["role"] == "ALL"
        assert set(aggregate) == {
            "role", "precision", "recall", "f1", "ndcg", "threshold", "counts",
            "precision_defined", "recall_defined", "ndcg_defined",
        }
        assert aggregate["counts"] == dict(zip(("tp", "fp", "fn", "tn"), runs[0.5].aggregate.counts))

        csv_buf = io.StringIO()
        write_reports_csv(runs, csv_buf)
        lines = csv_buf.getvalue().splitlines()
        assert lines[0] == "role,fraction,precision,recall,f1,ndcg"
        assert any(line.startswith("issuer,0.5,") for line in lines)
        assert lines[-1].startswith("ALL,0.5,")
