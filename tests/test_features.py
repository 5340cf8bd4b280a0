import math
import tracemalloc

import numpy as np
import pytest

import rolerank
from rolerank.corpus import NUM_TOKEN
from rolerank.features import FEATURIZE_BLOCK, context_vector, featurize
from synth import unit_vector_model


def model_of(vectors):
    """A finalized model whose word ``w{i}`` has the (unnormalized) row ``vectors[i]``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    model = unit_vector_model([f"w{i}" for i in range(len(vectors))], dim=vectors.shape[1], seed=0)
    model.input_vectors[:] = vectors
    return model


def one(sentences, model):
    """Featurize a single context; return its row and mask entry."""
    X, nonzero = featurize([sentences], model)
    assert X.shape == (1, model.dim) and nonzero.shape == (1,)
    return X[0], bool(nonzero[0])


class TestL2Normalize:
    def test_three_four_five(self):
        row, nonzero = one(["w0"], model_of([[3.0, 4.0]]))
        assert row == pytest.approx([0.6, 0.8])
        assert nonzero

    def test_unit_vector_unchanged(self):
        v = np.array([1 / math.sqrt(3)] * 3)
        row, nonzero = one(["w0"], model_of([v]))
        assert np.abs(row - v).max() < 1e-12
        assert nonzero

    def test_zero_vector_signalled(self):
        row, nonzero = one(["w0 w0"], model_of([np.zeros(4)]))
        assert np.all(row == 0)
        assert not nonzero

    def test_tiny_vector_signalled(self):
        row, nonzero = one(["w0"], model_of([np.full(3, 1e-14)]))
        assert np.all(row == 0)
        assert not nonzero


class TestContextVector:
    def model(self):
        return unit_vector_model([f"word{i}" for i in range(20)], dim=8, seed=3)

    def test_repeated_word_equals_its_vector(self):
        model = self.model()
        row, nonzero = one(["word3 word3 word3 word3 word3 word3 word3"], model)
        assert np.abs(row - model.input_vectors[model.vocab.index["word3"]]).max() < 1e-12
        assert nonzero

    def test_two_orthogonal_words(self):
        model = unit_vector_model(["alpha", "beta"], dim=4, seed=0)
        model.input_vectors[0] = [1.0, 0.0, 0.0, 0.0]
        model.input_vectors[1] = [0.0, 1.0, 0.0, 0.0]
        row, _ = one(["alpha beta"], model)
        assert row == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0])

    def test_all_oov(self):
        row, nonzero = one(["completely unknown words"], self.model())
        assert not nonzero
        assert np.all(row == 0)

    def test_oov_tokens_skipped(self):
        model = self.model()
        X, nonzero = featurize([["word1 mystery word2"], ["word1 word2"]], model)
        assert np.abs(X[0] - X[1]).max() < 1e-12
        assert nonzero.all()

    def test_counts_matter_before_normalization(self):
        X, _ = featurize([["word1 word2"], ["word1 word1 word2"]], self.model())
        assert np.abs(X[0] - X[1]).max() > 1e-6

    def test_permutation_invariance(self):
        model = self.model()
        rng = np.random.default_rng(11)
        words = [f"word{i}" for i in rng.integers(0, 20, size=12)]
        contexts = [[" ".join(words)]]
        for _ in range(5):
            rng.shuffle(words)
            contexts.append([" ".join(words)])
        X, _ = featurize(contexts, model)
        assert np.abs(X[1:] - X[0]).max() < 1e-9

    def test_sentence_split_irrelevant(self):
        contexts = [["word1 word2 word3 word4"], ["word1 word2", "word3 word4"]]
        X, _ = featurize(contexts, self.model())
        assert np.abs(X[0] - X[1]).max() < 1e-12

    def test_duplicating_whole_context_invariant(self):
        sentences = ["word1 word5 word5", "word2 word7"]
        X, _ = featurize([sentences, sentences + sentences], self.model())
        assert np.abs(X[0] - X[1]).max() < 1e-9

    def test_unit_norm(self):
        model = self.model()
        rng = np.random.default_rng(13)
        contexts = [
            [" ".join(f"word{i}" for i in rng.integers(0, 20, size=rng.integers(1, 15)))]
            for _ in range(100)
        ]
        X, nonzero = featurize(contexts, model)
        assert nonzero.all()
        assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() < 1e-6

    def test_requires_finalized(self):
        model = self.model()
        model.output_vectors = np.zeros_like(model.input_vectors)
        with pytest.raises(ValueError):
            featurize([["word1"]], model)

    def test_empty_input(self):
        X, nonzero = featurize([], self.model())
        assert X.shape == (0, 8) and nonzero.shape == (0,)
        assert nonzero.dtype == bool

    def test_sum_equals_sequential_sum(self):
        model = self.model()
        sentences = ["word3 mystery word7 word3", "word12 word3 word0"]
        total = np.zeros(model.dim)
        for sentence in sentences:
            for token in sentence.split():
                if token in model.vocab.index:
                    total += model.input_vectors[model.vocab.index[token]]
        row, _ = one(sentences, model)
        assert np.array_equal(row, total / np.linalg.norm(total))

    def test_batch_equals_each_context_alone(self):
        model = self.model()
        rng = np.random.default_rng(17)
        contexts = [
            [" ".join(f"word{i}" for i in rng.integers(0, 20, size=size))]
            for size in (1, 9, 3, 14, 2)
        ]
        contexts.insert(2, ["nothing known here"])
        contexts.append(["word4 unknown", "word4 word11 word19 word4"])
        X, nonzero = featurize(contexts, model)
        assert nonzero.tolist() == [True, True, False, True, True, True, True]
        for context, row, mask in zip(contexts, X, nonzero):
            alone, alone_mask = one(context, model)
            assert np.array_equal(row, alone)
            assert mask == alone_mask

    def test_exact_cancellation_degenerates(self):
        row, nonzero = one(["w0 w1"], model_of([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        assert np.all(row == 0)
        assert not nonzero


class TestBlockedSum:
    """``featurize`` sums blocks of FEATURIZE_BLOCK contexts at once; each
    row must equal the per-context reference bit for bit."""

    def model(self, dim=30):
        return unit_vector_model([f"word{i}" for i in range(40)] + [NUM_TOKEN], dim=dim, seed=5)

    def contexts(self, n, seed):
        rng = np.random.default_rng(seed)
        contexts = []
        for c in range(n):
            sentences = []
            for _ in range(rng.integers(1, 4)):
                words = [f"word{i}" for i in rng.integers(0, 40, size=rng.integers(1, 12))]
                words += ["2016", "Word3,", "(unknown)", "word7"] * int(rng.integers(0, 2))
                rng.shuffle(words)
                sentences.append(" ".join(words) + ".")
            if c % 5 == 2:
                sentences = ["nothing here is known", "at all"][: 1 + c % 2]
            contexts.append(sentences)
        return contexts

    def reference(self, contexts, model):
        """The rows and mask of ``context_vector`` over its norm, one context
        at a time: the squares summed in column order in plain Python, then
        ``math.sqrt``, with no BLAS in between."""
        X = np.zeros((len(contexts), model.dim))
        nonzero = np.zeros(len(contexts), dtype=bool)
        for i, sentences in enumerate(contexts):
            total = context_vector(sentences, model)
            squares = 0.0
            for x in total.tolist():
                squares += x * x
            norm = math.sqrt(squares)
            if norm > 1e-12:
                X[i], nonzero[i] = total / norm, True
        return X, nonzero

    @pytest.mark.parametrize("n", [0, 1, FEATURIZE_BLOCK - 1, FEATURIZE_BLOCK,
                                   FEATURIZE_BLOCK + 1, 2 * FEATURIZE_BLOCK + 3])
    def test_equals_context_vector_reference(self, n):
        model = self.model()
        contexts = self.contexts(n, seed=n)
        if n:
            contexts[-1] = ["word1 word1 word1", "40 word2 7", "word1 word3 word1"]
        X, nonzero = featurize(contexts, model)
        expected, expected_nonzero = self.reference(contexts, model)
        assert X.shape == (n, model.dim) and X.tobytes() == expected.tobytes()
        assert nonzero.tolist() == expected_nonzero.tolist()
        if n > 2:
            assert 0 < nonzero.sum() < n  # both all-OOV and known contexts were covered

    @pytest.mark.parametrize("dim", [2, 5, 64, 100, 300])
    def test_equals_reference_at_other_dims(self, dim):
        model = self.model(dim)
        contexts = self.contexts(FEATURIZE_BLOCK + 7, seed=dim)
        assert featurize(contexts, model)[0].tobytes() == self.reference(contexts, model)[0].tobytes()

    def test_rows_do_not_depend_on_the_blas_kernel(self, tmp_path):
        """Given one embeddings file, the rows have the same bits on every
        BLAS kernel. Children featurize 2,000 contexts against one saved
        file under OPENBLAS_CORETYPE unset, Prescott and Nehalem, kernels
        any x86-64 CPU runs, and their bytes must match; on an AVX-512 CPU
        with numpy 2.4.6, norms taken by BLAS ddot gave three digests. An
        OpenBLAS built without DYNAMIC_ARCH ignores the variable, and the
        test then compares one kernel with itself."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from rolerank.embedding import save_embedding

        paths = tmp_path / "emb.txt", tmp_path / "contexts.json"
        save_embedding(self.model(), paths[0])
        paths[1].write_text(json.dumps(self.contexts(2000, seed=9)))
        script = (
            "import hashlib, json, sys\n"
            "from rolerank.embedding import load_embedding\n"
            "from rolerank.features import featurize\n"
            "contexts = json.load(open(sys.argv[2]))\n"
            "X, nonzero = featurize(contexts, load_embedding(sys.argv[1]))\n"
            "print(hashlib.sha256(X.tobytes() + nonzero.tobytes()).hexdigest())\n"
        )
        src = str(Path(rolerank.__file__).resolve().parent.parent)
        digests = []
        for coretype in (None, "Prescott", "Nehalem"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            run = subprocess.run([sys.executable, "-c", script, *map(str, paths)], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert len(digests[0].split()) == 1
        assert digests[1:] == [digests[0]] * 2

    def test_peak_memory_bounded_by_output(self):
        """Blocks bound the temporaries: an unblocked sum over 8,000
        contexts peaked at ~27x its output, the blocked one at ~1.3x."""
        model = self.model()
        contexts = self.contexts(8000, seed=1)
        tracemalloc.start()
        try:
            X, _ = featurize(contexts, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * X.nbytes, (peak, X.nbytes)


def test_every_exported_name_resolves():
    for name in rolerank.__all__:
        assert hasattr(rolerank, name), name
