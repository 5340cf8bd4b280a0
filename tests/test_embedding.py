import math

import numpy as np
import pytest
from scipy import stats

from rolerank.embedding import (
    EmbeddingConfig,
    EmbeddingModel,
    UnigramSampler,
    Vocabulary,
    build_vocabulary,
    finalize,
    load_embedding,
    nearest_neighbors,
    pair_loss_and_gradients,
    save_embedding,
    train_skipgram,
)
from synth import clique_corpus


def make_model(words, vectors, finalized=True):
    vectors = np.asarray(vectors, dtype=np.float64)
    vocab = Vocabulary(
        words=tuple(words),
        counts={w: 1 for w in words},
        index={w: i for i, w in enumerate(words)},
    )
    return EmbeddingModel(vocab=vocab, input_vectors=vectors, finalized=finalized)


class TestBuildVocabulary:
    def test_counts_and_order(self):
        vocab = build_vocabulary([["a", "b", "a"]])
        assert vocab.words == ("a", "b")
        assert vocab.counts == {"a": 2, "b": 1}
        assert vocab.index == {"a": 0, "b": 1}

    def test_min_count_threshold(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
        assert vocab.words == ("a",)

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary([["zeta", "alpha"], ["alpha", "zeta"]])
        assert vocab.words == ("alpha", "zeta")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_nothing_survives_rejected(self):
        with pytest.raises(ValueError, match="min_count"):
            build_vocabulary([["a", "b"]], min_count=3)


class TestUnigramSampler:
    def test_symmetric_two_words(self):
        vocab = build_vocabulary([["a"], ["b"]])
        sampler = UnigramSampler(vocab)
        assert sampler.probabilities == pytest.approx([0.5, 0.5])

    def test_power_ratio_16_to_1(self):
        # 16^0.75 = 8 exactly
        vocab = build_vocabulary([["a"] * 16, ["b"]])
        sampler = UnigramSampler(vocab, power=0.75)
        ratio = sampler.probabilities[0] / sampler.probabilities[1]
        assert ratio == pytest.approx(8.0, abs=1e-12)

    def test_power_ratio_empirical(self):
        vocab = build_vocabulary([["a"] * 16, ["b"]])
        sampler = UnigramSampler(vocab, power=0.75)
        rng = np.random.default_rng(31)
        draws = sampler.sample_n(rng, 100_000)
        observed = np.bincount(draws, minlength=2)
        expected = sampler.probabilities * len(draws)
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_single_word_always_zero(self):
        vocab = build_vocabulary([["only"]])
        sampler = UnigramSampler(vocab)
        rng = np.random.default_rng(0)
        assert np.all(sampler.sample_n(rng, 50) == 0)

    def test_loaded_model_has_no_sampler(self):
        vocab = Vocabulary(words=("a",), counts={}, index={"a": 0})
        with pytest.raises(ValueError):
            UnigramSampler(vocab)


def fd_center_gradient(center, context, negatives, eps=1e-5):
    grad = np.zeros_like(center)
    for d in range(len(center)):
        bump = np.zeros_like(center)
        bump[d] = eps
        up = pair_loss_and_gradients(center + bump, context, negatives)[0]
        down = pair_loss_and_gradients(center - bump, context, negatives)[0]
        grad[d] = (up - down) / (2 * eps)
    return grad


def fd_output_gradients(center, context, negatives, eps=1e-5):
    outs = [np.array(context, dtype=float)] + [np.array(n, dtype=float) for n in negatives]
    grads = []
    for row in range(len(outs)):
        grad = np.zeros_like(outs[row])
        for d in range(len(grad)):
            bumped_up = [o.copy() for o in outs]
            bumped_up[row][d] += eps
            bumped_down = [o.copy() for o in outs]
            bumped_down[row][d] -= eps
            up = pair_loss_and_gradients(center, bumped_up[0], bumped_up[1:])[0]
            down = pair_loss_and_gradients(center, bumped_down[0], bumped_down[1:])[0]
            grad[d] = (up - down) / (2 * eps)
        grads.append(grad)
    return grads[0], grads[1:]


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6))


class TestPairLossAndGradients:
    def test_all_zero_vectors(self):
        d, k = 6, 4
        zero = np.zeros(d)
        loss, g_center, g_context, g_negs = pair_loss_and_gradients(
            zero, zero, [zero] * k
        )
        assert loss == pytest.approx((1 + k) * math.log(2), abs=1e-12)
        assert np.all(g_center == 0) and np.all(g_context == 0) and np.all(g_negs == 0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            k = int(rng.integers(1, 6))
            loss, *_ = pair_loss_and_gradients(
                rng.normal(size=d), rng.normal(size=d), rng.normal(size=(k, d))
            )
            assert loss >= 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        for d in (2, 5, 30):
            for k in (1, 5):
                center = rng.normal(scale=1 / math.sqrt(d), size=d)
                context = rng.normal(scale=1 / math.sqrt(d), size=d)
                negatives = rng.normal(scale=1 / math.sqrt(d), size=(k, d))
                loss, g_center, g_context, g_negs = pair_loss_and_gradients(
                    center, context, negatives
                )
                assert rel_err(g_center, fd_center_gradient(center, context, negatives)) < 1e-4
                fd_ctx, fd_negs = fd_output_gradients(center, context, negatives)
                assert rel_err(g_context, fd_ctx) < 1e-4
                for analytic, numeric in zip(g_negs, fd_negs):
                    assert rel_err(analytic, numeric) < 1e-4

    def test_saturated_positive_pair(self):
        # dot(center, context) = 30 is effectively +inf for the logistic
        d, k = 4, 2
        center = np.zeros(d)
        center[0] = 30.0
        context = np.zeros(d)
        context[0] = 1.0
        negatives = np.zeros((k, d))
        negatives[0, 1] = 1.0
        negatives[1, 2] = 1.0
        loss, g_center, _, _ = pair_loss_and_gradients(center, context, negatives)
        assert loss == pytest.approx(k * math.log(2), abs=1e-12)
        # positive-pair term of the center gradient vanishes; negatives leave 0.5 each
        expected = 0.5 * (negatives[0] + negatives[1])
        assert np.abs(g_center - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            pair_loss_and_gradients(np.zeros(3), np.zeros(4), [np.zeros(3)])

    def test_requires_negatives(self):
        with pytest.raises(ValueError, match="negative"):
            pair_loss_and_gradients(np.zeros(3), np.zeros(3), [])


class TestEmbeddingConfig:
    def test_defaults(self):
        config = EmbeddingConfig()
        assert config.dim == 30
        assert config.window == 5
        assert config.negatives == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"dim": 1},
            {"window": 0},
            {"negatives": 0},
            {"lr_initial": 0.01, "lr_final": 0.02},
            {"min_count": 0},
            {"subsample": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingConfig(**kwargs)


class TestTrainSkipgram:
    def test_seeded_runs_identical(self):
        corpus = clique_corpus(sentences_per_clique=60)
        config = EmbeddingConfig(dim=10, epochs=3, seed=99)
        m1 = train_skipgram(corpus, config)
        m2 = train_skipgram(corpus, config)
        assert np.array_equal(m1.input_vectors, m2.input_vectors)
        assert np.array_equal(m1.output_vectors, m2.output_vectors)

    def test_cliques_cluster(self):
        corpus = clique_corpus(sentences_per_clique=300)
        model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=10, epochs=10, seed=3)))
        a, b, x = (model.input_vectors[model.vocab.index[w]] for w in ("a", "b", "x"))
        assert a @ b > a @ x

    def test_loss_decreases(self):
        corpus = clique_corpus(sentences_per_clique=200)
        model = train_skipgram(corpus, EmbeddingConfig(dim=10, epochs=8, seed=5))
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_init_distribution(self):
        # one-word sentences produce no pairs, so vectors keep their init
        corpus = [["solo"]] * 4
        config = EmbeddingConfig(dim=25, epochs=1, seed=8)
        model = train_skipgram(corpus, config)
        vectors = model.input_vectors
        assert np.abs(vectors).max() <= 0.5 / config.dim
        assert np.all(model.output_vectors == 0)
        assert model.epoch_losses == (0.0,)

    def test_subsampling_smoke(self):
        corpus = clique_corpus(sentences_per_clique=100)
        config = EmbeddingConfig(dim=8, epochs=2, seed=4, subsample=1e-2)
        model = finalize(train_skipgram(corpus, config))
        norms = np.linalg.norm(model.input_vectors, axis=1)
        assert np.abs(norms - 1).max() < 1e-6

    def test_negatives_never_equal_their_context(self, monkeypatch):
        from rolerank import embedding

        draw = embedding._draw_negatives
        drawn = []

        def recording(sampler, rng, contexts, k):
            negatives = draw(sampler, rng, contexts, k)
            drawn.append((contexts.copy(), negatives.copy()))
            return negatives

        monkeypatch.setattr(embedding, "_draw_negatives", recording)
        corpus = [["a", "b", "a", "b", "b"]] * 20
        train_skipgram(corpus, EmbeddingConfig(dim=4, negatives=5, epochs=2, seed=3))
        assert len(drawn) == 40
        for contexts, negatives in drawn:
            assert negatives.shape == (len(contexts), 5)
            # two words: every negative must be the word that is not the context
            assert np.array_equal(negatives, np.repeat(1 - contexts[:, None], 5, axis=1))

    def test_one_word_vocabulary_trains(self):
        corpus = [["solo", "solo", "solo"]] * 3
        model = train_skipgram(corpus, EmbeddingConfig(dim=4, epochs=2, seed=3))
        assert all(loss > 0 for loss in model.epoch_losses)
        assert np.all(np.isfinite(model.input_vectors))
        assert np.any(model.output_vectors != 0)

    def test_min_count_propagates(self):
        corpus = [["common", "common", "rare"]]
        model = train_skipgram(corpus, EmbeddingConfig(dim=4, epochs=1, min_count=2, seed=1))
        assert "rare" not in model.vocab


class TestTrainerMatchesPairOperation:
    def test_two_word_corpus_replay(self):
        """One sentence is one step of pair_loss_and_gradients updates.

        Replays the RNG substreams by hand for a one-sentence corpus: every
        pair's gradients come from the vectors before the step, and each
        row's lr-scaled contributions, in pair order (center, then context,
        then negatives in draw order), are reduced with np.add.reduceat and
        subtracted once. The final matrices must match bitwise.
        """
        from collections import defaultdict

        from rolerank.embedding import UnigramSampler, build_vocabulary
        from rolerank.seeds import make_rng

        config = EmbeddingConfig(dim=4, window=2, negatives=2, epochs=1,
                                 lr_initial=0.1, lr_final=0.05, seed=77)
        corpus = [["a", "b", "a", "c"]]
        model = train_skipgram(corpus, config)

        vocab = build_vocabulary(corpus)
        sentence = [vocab.index[w] for w in corpus[0]]
        n, k = len(sentence), config.negatives
        inp = (make_rng(config.seed, "init").random((len(vocab), config.dim)) - 0.5) / config.dim
        out = np.zeros((len(vocab), config.dim))
        windows = make_rng(config.seed, "window").integers(1, config.window + 1, size=n)
        pairs = [
            (sentence[i], sentence[j])
            for i in range(n)
            for j in range(max(0, i - windows[i]), min(n, i + windows[i] + 1))
            if j != i
        ]

        # slots fill row-major; rejected slots are redrawn row-major
        stream = iter(UnigramSampler(vocab, config.unigram_power).sample_n(
            make_rng(config.seed, "negatives"), 10_000).tolist())
        negatives = [[next(stream) for _ in range(k)] for _ in pairs]
        while True:
            rejected = [(p, s) for p, (_, context) in enumerate(pairs)
                        for s in range(k) if negatives[p][s] == context]
            if not rejected:
                break
            for p, s in rejected:
                negatives[p][s] = next(stream)

        to_input, to_output = defaultdict(list), defaultdict(list)
        for pair_index, ((center, context), negs) in enumerate(zip(pairs, negatives)):
            lr = config.lr_initial - (config.lr_initial - config.lr_final) * (
                pair_index / (len(pairs) - 1))
            _, g_center, g_context, g_negs = pair_loss_and_gradients(
                inp[center], out[context], [out[m] for m in negs]
            )
            to_input[center].append(lr * g_center)
            to_output[context].append(lr * g_context)
            for m, g in zip(negs, g_negs):
                to_output[m].append(lr * g)
        assert max(len(v) for v in to_input.values()) > 1
        assert max(len(v) for v in to_output.values()) > 1
        for matrix, contributions in ((inp, to_input), (out, to_output)):
            for row, updates in contributions.items():
                matrix[row] = matrix[row] - np.add.reduceat(np.stack(updates), [0], axis=0)[0]

        assert np.array_equal(model.input_vectors, inp)
        assert np.array_equal(model.output_vectors, out)


class TestFinalize:
    def test_three_four_five(self):
        vectors = np.zeros((1, 5))
        vectors[0, 0] = 3.0
        vectors[0, 1] = 4.0
        model = make_model(["w"], vectors, finalized=False)
        out = finalize(model)
        assert out.input_vectors[0] == pytest.approx([0.6, 0.8, 0, 0, 0])
        assert out.finalized and out.output_vectors is None

    def test_already_unit_unchanged(self):
        v = np.array([[1 / math.sqrt(2), 1 / math.sqrt(2), 0.0]])
        out = finalize(make_model(["w"], v, finalized=False))
        assert np.abs(out.input_vectors - v).max() < 1e-12

    def test_zero_vector_replaced_by_e1(self):
        vectors = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        out = finalize(make_model(["dead", "live"], vectors, finalized=False))
        assert out.input_vectors[0] == pytest.approx([1.0, 0.0, 0.0])
        assert out.zero_replaced == ("dead",)

    def test_double_finalize_rejected(self):
        model = finalize(make_model(["w"], np.ones((1, 3)), finalized=False))
        with pytest.raises(ValueError):
            finalize(model)

    def test_trained_model_unit_norms(self):
        corpus = clique_corpus(sentences_per_clique=80)
        model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=12, epochs=2, seed=2)))
        norms = np.linalg.norm(model.input_vectors, axis=1)
        assert np.abs(norms - 1).max() < 1e-6


class TestNearestNeighbors:
    def geometry_model(self):
        angle = math.radians(15)
        vectors = np.array(
            [
                [1.0, 0.0, 0.0],
                [math.cos(angle), math.sin(angle), 0.0],
                [0.0, 1.0, 0.0],
            ]
        )
        return make_model(["a", "b", "c"], vectors)

    def test_hand_geometry(self):
        model = self.geometry_model()
        neighbors = nearest_neighbors(model, "a", 2)
        assert [w for w, _ in neighbors] == ["b", "c"]
        assert neighbors[0][1] == pytest.approx(math.cos(math.radians(15)))
        assert neighbors[1][1] == pytest.approx(0.0)

    def test_k_truncates(self):
        model = self.geometry_model()
        assert len(nearest_neighbors(model, "a", 10)) == 2

    def test_excludes_seed_and_sorted(self):
        model = self.geometry_model()
        for word in ("a", "b", "c"):
            neighbors = nearest_neighbors(model, word, 5)
            assert word not in [w for w, _ in neighbors]
            sims = [s for _, s in neighbors]
            assert sims == sorted(sims, reverse=True)

    def test_oov_seed_named(self):
        with pytest.raises(KeyError, match="ghost"):
            nearest_neighbors(self.geometry_model(), "ghost", 1)

    def test_requires_finalized(self):
        model = make_model(["a"], np.ones((1, 2)), finalized=False)
        with pytest.raises(ValueError):
            nearest_neighbors(model, "a", 1)

    def test_tie_broken_by_vocab_order(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        model = make_model(["seed", "beta", "alpha"], vectors)
        neighbors = nearest_neighbors(model, "seed", 2)
        assert [w for w, _ in neighbors] == ["beta", "alpha"]  # vocab order, not name


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        corpus = clique_corpus(sentences_per_clique=50)
        model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=7, epochs=2, seed=6)))
        path = tmp_path / "emb.txt"
        save_embedding(model, path)
        loaded = load_embedding(path)
        assert loaded.vocab.words == model.vocab.words
        assert np.array_equal(loaded.input_vectors, model.input_vectors)
        assert loaded.finalized

    def test_header_and_arity(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nw 0.1 0.2 0.3\nv 0.4 0.5 0.6\n")
        model = load_embedding(path)
        assert model.vocab.words == ("w", "v")

        path.write_text("junk\n")
        with pytest.raises(ValueError, match="header"):
            load_embedding(path)

        path.write_text("1 3\nw 0.1 0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embedding(path)

        path.write_text("2 3\nw 0.1 0.2 0.3\n")
        with pytest.raises(ValueError, match="claims 2"):
            load_embedding(path)

        path.write_text("2 2\nw 0.1 0.2\nw 0.3 0.4\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_embedding(path)

        for value in ("nan", "inf", "-inf"):
            path.write_text(f"2 2\nw 0.1 0.2\nv 0.3 {value}\n")
            with pytest.raises(ValueError, match="line 3: non-finite"):
                load_embedding(path)

        path.write_text("1 2\nw 0.1 abc\n")
        with pytest.raises(ValueError, match="line 2: non-numeric"):
            load_embedding(path)

    def test_unfinalized_not_persisted(self, tmp_path):
        model = make_model(["w"], np.ones((1, 2)), finalized=False)
        with pytest.raises(ValueError):
            save_embedding(model, tmp_path / "emb.txt")

    def test_rewrite_identical_bytes(self, tmp_path):
        corpus = clique_corpus(sentences_per_clique=40)
        model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=5, epochs=1, seed=10)))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_embedding(model, p1)
        save_embedding(load_embedding(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
