import io
import json

import numpy as np
import pytest

from rolerank import pipeline
from rolerank.corpus import ContextualTriple, RelevanceLabel
from rolerank.evaluation import evaluate, split_train_test
from rolerank.features import featurize
from rolerank.forest import ForestConfig, classifier_to_json, predict_proba
from rolerank.pipeline import (
    ModelBundle,
    ScoredTriple,
    binarize_label,
    rank,
    score_triples,
    train_role_models,
    write_scored,
)
from synth import unit_vector_model

L = RelevanceLabel


def triple(tid, role, words, label=None):
    return ContextualTriple(
        id=tid, head="H", role=role, tail="T", sentences=(words,), label=label
    )


@pytest.fixture(scope="module")
def model():
    return unit_vector_model([f"word{i}" for i in range(30)], dim=6, seed=42)


def labeled_role(role, model_words, n=12, flip=0):
    """n triples, half positive around word0-word4, half negative around word5+."""
    out = []
    for i in range(n):
        positive = i % 2 == 0
        words = " ".join(
            f"word{(i * 3 + j) % 5}" if positive else f"word{5 + (i * 3 + j) % 5}"
            for j in range(4)
        )
        label = L.HIGHLY_RELEVANT if (positive and i % 4 == 0) else (L.RELEVANT if positive else L.IRRELEVANT)
        out.append(triple(f"{role}-{i:02d}", role, words, label))
    return out


class TestBinarizeLabel:
    def test_mapping(self):
        assert binarize_label(L.HIGHLY_RELEVANT) == 1
        assert binarize_label(L.RELEVANT) == 1
        assert binarize_label(L.IRRELEVANT) == 0
        assert binarize_label(L.NEUTRAL) is None


class TestTrainRoleModels:
    def test_three_roles_no_skips(self, model):
        labeled = (
            labeled_role("affiliate", model)
            + labeled_role("trustee", model)
            + labeled_role("issuer", model)
        )
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=5, seed=1))
        assert sorted(bundle.classifiers) == ["affiliate", "issuer", "trustee"]
        assert bundle.skipped_roles == []

    def test_single_class_role_skipped(self, model):
        labeled = labeled_role("issuer", model) + [
            triple(f"solo-{i}", "guarantor", "word1 word2", L.RELEVANT) for i in range(5)
        ]
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=3, seed=1))
        assert ("guarantor", "single-class") in bundle.skipped_roles
        assert "guarantor" not in bundle.classifiers

    def test_neutral_only_role_skipped(self, model):
        labeled = labeled_role("issuer", model) + [
            triple(f"n-{i}", "custodian", "word1", L.NEUTRAL) for i in range(4)
        ]
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=3, seed=1))
        assert ("custodian", "no trainable labels") in bundle.skipped_roles

    def test_too_few_per_class_skipped(self, model):
        labeled = labeled_role("issuer", model) + [
            triple("few-0", "agent", "word0", L.RELEVANT),
            triple("few-1", "agent", "word1", L.RELEVANT),
            triple("few-2", "agent", "word7", L.IRRELEVANT),
        ]
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=3, seed=1))
        assert ("agent", "fewer than 2 samples in a class") in bundle.skipped_roles

    def test_zero_trainable_roles_error(self, model):
        labeled = [triple("n-0", "agent", "word1", L.NEUTRAL)]
        with pytest.raises(ValueError, match="no role"):
            train_role_models(labeled, model, ForestConfig(n_trees=3, seed=1))

    def test_unlabeled_triple_rejected(self, model):
        with pytest.raises(ValueError, match="no label"):
            train_role_models([triple("x", "agent", "word1")], model, ForestConfig(seed=1))

    def test_neutral_and_oov_excluded_from_training_size(self, model):
        labeled = labeled_role("issuer", model, n=12) + [
            triple("extra-n", "issuer", "word0 word1", L.NEUTRAL),
            triple("extra-oov", "issuer", "qqq zzz", L.RELEVANT),
        ]
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=3, seed=1))
        pos, neg = bundle.classifiers["issuer"].training_size
        assert pos + neg == 12  # neutral and all-OOV both dropped

    def test_input_order_invariance(self, model):
        labeled = labeled_role("issuer", model) + labeled_role("trustee", model)
        config = ForestConfig(n_trees=4, seed=9)
        bundle_a = train_role_models(labeled, model, config)
        bundle_b = train_role_models(list(reversed(labeled)), model, config)
        for role in bundle_a.classifiers:
            assert classifier_to_json(bundle_a.classifiers[role]) == classifier_to_json(
                bundle_b.classifiers[role]
            )

    def test_per_role_seeds_differ(self, model):
        labeled = labeled_role("issuer", model) + labeled_role("trustee", model)
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=2, seed=9))
        assert (
            bundle.classifiers["issuer"].config.seed
            != bundle.classifiers["trustee"].config.seed
        )

    def test_one_featurize_call(self, model, monkeypatch):
        calls = []

        def spy(contexts, embedding):
            calls.append([sentences[0] for sentences in contexts])
            return featurize(contexts, embedding)

        monkeypatch.setattr(pipeline, "featurize", spy)
        labeled = labeled_role("trustee", model, n=6) + labeled_role("issuer", model, n=6) + [
            triple("extra-n", "issuer", "word0 word1", L.NEUTRAL),
            triple("extra-oov", "issuer", "qqq zzz", L.RELEVANT),
        ]
        bundle = train_role_models(labeled, model, ForestConfig(n_trees=2, seed=1))
        assert sorted(bundle.classifiers) == ["issuer", "trustee"]
        trainable = sorted((t for t in labeled if t.label is not L.NEUTRAL), key=lambda t: t.id)
        assert calls == [[t.sentences[0] for t in trainable]]

    def test_requires_finalized(self, model):
        import dataclasses

        raw = dataclasses.replace(model, output_vectors=np.zeros_like(model.input_vectors))
        with pytest.raises(ValueError, match="finalized"):
            train_role_models([], raw, ForestConfig(seed=1))


@pytest.fixture(scope="module")
def bundle(model):
    labeled = labeled_role("issuer", model, n=20)
    return train_role_models(labeled, model, ForestConfig(n_trees=10, seed=3))


class TestScoreTriples:
    def test_known_role_uses_classifier(self, bundle):
        scored = score_triples([triple("q1", "issuer", "word0 word1 word2")], bundle)
        assert 0.0 <= scored[0].score <= 1.0
        assert not scored[0].oov_fallback

    def test_unknown_role_scores_zero(self, bundle):
        scored = score_triples([triple("q2", "guarantor", "word0 word1")], bundle)
        assert scored[0].score == 0.0
        assert not scored[0].oov_fallback

    def test_all_oov_scores_half(self, bundle):
        scored = score_triples([triple("q3", "issuer", "zzz qqq xxx")], bundle)
        assert scored[0].score == 0.5
        assert scored[0].oov_fallback

    def test_unknown_role_beats_oov_fallback(self, bundle):
        scored = score_triples([triple("q4", "guarantor", "zzz qqq")], bundle)
        assert scored[0].score == 0.0

    def test_deterministic(self, bundle):
        queries = [triple(f"q{i}", "issuer", f"word{i} word{i+1}") for i in range(8)]
        a = [s.score for s in score_triples(queries, bundle)]
        b = [s.score for s in score_triples(queries, bundle)]
        assert a == b

    def test_separable_scores_order(self, model, bundle):
        positive = score_triples([triple("p", "issuer", "word0 word1 word2 word3")], bundle)
        negative = score_triples([triple("n", "issuer", "word5 word6 word7 word8")], bundle)
        assert positive[0].score > negative[0].score


    def test_mixed_batch_in_input_order(self, model):
        labeled = labeled_role("issuer", model, n=20) + labeled_role("trustee", model, n=20)
        two_roles = train_role_models(labeled, model, ForestConfig(n_trees=10, seed=3))
        batch = []
        for i in range(6):
            batch += [
                triple(f"i{i}", "issuer", f"word{i} word{i + 4} word{i + 7}"),
                triple(f"t{i}", "trustee", f"word{i + 1} word{9 - i}"),
            ]
        batch.insert(3, triple("g", "guarantor", "word0 word1"))
        batch.insert(7, triple("o", "trustee", "zzz qqq"))
        scored = score_triples(batch, two_roles)
        assert [s.triple.id for s in scored] == [t.id for t in batch]
        for s in scored:
            if s.triple.id == "g":
                assert (s.score, s.oov_fallback) == (0.0, False)
            elif s.triple.id == "o":
                assert (s.score, s.oov_fallback) == (0.5, True)
            else:
                classifier = two_roles.classifiers[s.triple.role]
                X, _ = featurize([s.triple.sentences], model)
                assert type(s.score) is float
                assert s.score == predict_proba(classifier, X[0])
        assert len({s.score for s in scored}) > 3


class TestPrecomputedFeatures:
    """``featurize_triples`` featurizes a labeled set once; its subsets then
    train, score and evaluate as if each had been featurized on its own."""

    def test_same_models_scores_and_reports(self, model, monkeypatch):
        labeled = labeled_role("issuer", model, n=20) + labeled_role("trustee", model, n=20) + [
            triple("n-0", "issuer", "word0 word7", L.NEUTRAL),
            triple("oov-0", "trustee", "qqq zzz", L.RELEVANT),
            triple("oov-1", "trustee", "zzz", L.IRRELEVANT),
            triple("g-0", "guarantor", "word1 word2", L.RELEVANT),
        ]
        config = ForestConfig(n_trees=10, seed=3)
        splits = [split_train_test(labeled, fraction, seed=9) for fraction in (0.3, 0.5, 0.8)]

        def run(features=None):
            """Per split: the skipped roles, each model's JSON, the scores of
            the whole set and the test split's report."""
            out = []
            for train, test in splits:
                bundle = train_role_models(train, model, config, features)
                models = {role: classifier_to_json(c) for role, c in bundle.classifiers.items()}
                out.append((bundle.skipped_roles, models, score_triples(labeled, bundle, features),
                            evaluate(bundle, test, features=features)))
            return out

        features = pipeline.featurize_triples(labeled, model)
        monkeypatch.setattr(pipeline, "featurize", None)  # every row must come from features
        shared = run(features)
        monkeypatch.undo()
        assert run() == shared
        assert {s.oov_fallback for _, _, scored, _ in shared for s in scored} == {True, False}


class TestRank:
    def scored(self, tid, score):
        return ScoredTriple(triple=triple(tid, "r", "w"), score=score)

    def test_descending(self):
        ranked = rank([self.scored("t1", 0.9), self.scored("t2", 0.1), self.scored("t3", 0.5)])
        assert [s.triple.id for s in ranked] == ["t1", "t3", "t2"]

    def test_ties_by_id(self):
        ranked = rank([self.scored("tb", 0.5), self.scored("ta", 0.5)])
        assert [s.triple.id for s in ranked] == ["ta", "tb"]

    def test_empty(self):
        assert rank([]) == []

    def test_permutation_property(self):
        rng = np.random.default_rng(4)
        items = [self.scored(f"t{i}", float(rng.random())) for i in range(30)]
        ranked = rank(items)
        assert sorted(s.triple.id for s in ranked) == sorted(s.triple.id for s in items)
        scores = [s.score for s in ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_write_scored_format(model):
    bundle = ModelBundle(embedding=model, classifiers={}, skipped_roles=[])
    scored = score_triples([triple("q1", "nobody", "word1")], bundle)
    buf = io.StringIO()
    write_scored(scored, buf)
    obj = json.loads(buf.getvalue())
    assert obj == {"id": "q1", "role": "nobody", "score": 0.0, "oov_fallback": False}
