import math

import numpy as np
import pytest

from rolerank.features import context_vector, l2_normalize
from synth import unit_vector_model


class TestL2Normalize:
    def test_three_four_five(self):
        out, degenerate = l2_normalize(np.array([3.0, 4.0]))
        assert out == pytest.approx([0.6, 0.8])
        assert not degenerate

    def test_unit_vector_unchanged(self):
        v = np.array([1 / math.sqrt(3)] * 3)
        out, degenerate = l2_normalize(v)
        assert np.abs(out - v).max() < 1e-12
        assert not degenerate

    def test_zero_vector_signalled(self):
        out, degenerate = l2_normalize(np.zeros(4))
        assert np.all(out == 0)
        assert degenerate

    def test_tiny_vector_signalled(self):
        out, degenerate = l2_normalize(np.full(3, 1e-14))
        assert degenerate


def orthogonal_model():
    vectors = np.eye(4)
    return unit_vector_model([f"w{i}" for i in range(4)], dim=4, seed=0), vectors


class TestContextVector:
    def model(self):
        return unit_vector_model([f"word{i}" for i in range(20)], dim=8, seed=3)

    def test_repeated_word_equals_its_vector(self):
        model = self.model()
        cfv = context_vector(["word3 word3 word3 word3 word3 word3 word3"], model)
        assert np.abs(cfv.values - model.vector("word3")).max() < 1e-12
        assert not cfv.oov

    def test_two_orthogonal_words(self):
        model = unit_vector_model(["alpha", "beta"], dim=4, seed=0)
        model.input_vectors[0] = [1.0, 0.0, 0.0, 0.0]
        model.input_vectors[1] = [0.0, 1.0, 0.0, 0.0]
        cfv = context_vector(["alpha beta"], model)
        assert cfv.values == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0])

    def test_all_oov(self):
        cfv = context_vector(["completely unknown words"], self.model())
        assert cfv.oov
        assert cfv.is_zero
        assert np.all(cfv.values == 0)

    def test_oov_tokens_skipped(self):
        model = self.model()
        with_noise = context_vector(["word1 mystery word2"], model)
        without = context_vector(["word1 word2"], model)
        assert np.abs(with_noise.values - without.values).max() < 1e-12
        assert not with_noise.oov

    def test_counts_matter_before_normalization(self):
        model = self.model()
        once = context_vector(["word1 word2"], model)
        doubled = context_vector(["word1 word1 word2"], model)
        assert np.abs(once.values - doubled.values).max() > 1e-6

    def test_permutation_invariance(self):
        model = self.model()
        rng = np.random.default_rng(11)
        words = [f"word{i}" for i in rng.integers(0, 20, size=12)]
        base = context_vector([" ".join(words)], model)
        for _ in range(5):
            rng.shuffle(words)
            shuffled = context_vector([" ".join(words)], model)
            assert np.abs(base.values - shuffled.values).max() < 1e-9

    def test_sentence_split_irrelevant(self):
        model = self.model()
        joined = context_vector(["word1 word2 word3 word4"], model)
        split = context_vector(["word1 word2", "word3 word4"], model)
        assert np.abs(joined.values - split.values).max() < 1e-12

    def test_duplicating_whole_context_invariant(self):
        model = self.model()
        sentences = ["word1 word5 word5", "word2 word7"]
        once = context_vector(sentences, model)
        twice = context_vector(sentences + sentences, model)
        assert np.abs(once.values - twice.values).max() < 1e-9

    def test_unit_norm(self):
        model = self.model()
        rng = np.random.default_rng(13)
        for _ in range(100):
            words = [f"word{i}" for i in rng.integers(0, 20, size=rng.integers(1, 15))]
            cfv = context_vector([" ".join(words)], model)
            assert abs(np.linalg.norm(cfv.values) - 1.0) < 1e-6

    def test_requires_finalized(self):
        model = self.model()
        model.finalized = False
        with pytest.raises(ValueError):
            context_vector(["word1"], model)

    def test_sum_equals_sequential_sum(self):
        model = self.model()
        sentences = ["word3 mystery word7 word3", "word12 word3 word0"]
        total = np.zeros(model.dim)
        for sentence in sentences:
            for token in sentence.split():
                if token in model.vocab.index:
                    total += model.input_vectors[model.vocab.index[token]]
        expected, _ = l2_normalize(total)
        assert np.array_equal(context_vector(sentences, model).values, expected)

    def test_exact_cancellation_degenerates(self):
        model = unit_vector_model(["plus", "minus"], dim=3, seed=0)
        model.input_vectors[0] = [1.0, 0.0, 0.0]
        model.input_vectors[1] = [-1.0, 0.0, 0.0]
        cfv = context_vector(["plus minus"], model)
        assert cfv.is_zero
        assert not cfv.oov  # known words, degenerate sum
