import hashlib
import math
import random
import re
import signal
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rolerank.corpus import NUM_TOKEN, build_corpus, tokenize

from rolerank.embedding import (
    EmbeddingConfig,
    EmbeddingModel,
    UnigramSampler,
    Vocabulary,
    build_vocabulary,
    finalize,
    load_embedding,
    nearest_neighbors,
    save_embedding,
    train_skipgram,
)
from rolerank.seeds import derive_seed
from synth import (
    WHITESPACE,
    clique_corpus,
    make_labeled_triples,
    pair_loss_and_gradients,
    uniform_reference,
    unigram_probabilities,
    window_reference,
)


def make_model(words, vectors, finalized=True):
    """A model of these rows; an unfinalized one also has (zero) output vectors."""
    vectors = np.asarray(vectors, dtype=np.float64)
    vocab = Vocabulary(words=tuple(words))
    outputs = None if finalized else np.zeros_like(vectors)
    return EmbeddingModel(vocab=vocab, input_vectors=vectors, output_vectors=outputs)


class TestBuildVocabulary:
    def test_counts_and_order(self):
        corpus = [["a", "b", "a"]]
        vocab = build_vocabulary(corpus)
        assert vocab.words == ("a", "b")
        assert vocab.index == {"a": 0, "b": 1}
        assert np.bincount(vocab.encode(corpus)[0]).tolist() == [2, 1]

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


class TestEncode:
    @given(
        corpus=st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), min_size=1, max_size=8),
        queries=st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=6), max_size=8),
        min_count=st.integers(1, 3),
    )
    def test_equals_a_per_token_lookup(self, corpus, queries, min_count):
        try:
            vocab = build_vocabulary(corpus, min_count)
        except ValueError:  # no word is frequent enough
            return
        ids, lengths = vocab.encode(queries)
        assert ids.dtype == lengths.dtype == np.intp
        assert ids.tolist() == [vocab.index.get(w, -1) for q in queries for w in q]
        assert lengths.tolist() == [len(q) for q in queries]


# pieces that exercise the tokenizer's edge cases: Unicode digits, pieces of
# punctuation only, and "\u0130", whose lowercase is two characters long
PIECE_PARTS = WHITESPACE + "\u0663\u00b2\u0130.,;-_()'&%"


def vocabulary_of(texts) -> Vocabulary:
    """A vocabulary of every other distinct token of the texts and <num>,
    so that the texts hold both known and unknown tokens."""
    tokens = sorted({t for text in texts for t in tokenize(text)})
    words = tuple(dict.fromkeys([NUM_TOKEN, *tokens[::2]]))
    return Vocabulary(words=words)


class TestEncodeTexts:
    @given(st.lists(st.text(st.characters() | st.sampled_from(PIECE_PARTS)), max_size=6),
           st.lists(st.text(st.characters() | st.sampled_from(PIECE_PARTS)), max_size=6))
    @example(["\u0130stanbul A\u00b2 x\u00a0y _a_ a_b \u0663\u0664 --- 12", "x\x1cy\u2003z\u3000W."],
             ["\u0130STANBUL a\u00b2 \u0661"])
    @settings(max_examples=300, deadline=None)
    def test_known_ids_equal_encode_of_tokenize(self, texts, others):
        """Cold, then warm from the same texts, then warm from other texts:
        each text's ids >= 0 are ``encode([tokenize(text)])``'s, and it
        has one id per whitespace piece."""
        vocab = vocabulary_of(texts + others)
        expected = [vocab.encode([tokenize(text)])[0] for text in texts]
        for warm_up in ([], texts, others):
            vocab.encode_texts(warm_up)
            ids, lengths = vocab.encode_texts(texts)
            assert ids.dtype == lengths.dtype == np.intp
            assert lengths.tolist() == [len(text.lower().split()) for text in texts]
            per_text = np.split(ids, np.cumsum(lengths)[:-1]) if texts else []
            assert [i[i >= 0].tolist() for i in per_text] == [e[e >= 0].tolist() for e in expected]

    def test_memo_is_not_part_of_the_value(self):
        vocab, fresh = vocabulary_of(["a b"]), vocabulary_of(["a b"])
        vocab.encode_texts(["a b c"])
        assert vocab._pieces and vocab == fresh and repr(vocab) == repr(fresh)
        # the index is derived from the words, whose order is part of the value
        assert vocab.index == {NUM_TOKEN: 0, "a": 1} and vocab != Vocabulary(words=("a", NUM_TOKEN))


def sampler_weights(sampler):
    """The sampler's per-word weights, read back from its cumulative ones."""
    return np.diff(sampler._cum, prepend=0.0)


class TestUnigramSampler:
    def test_symmetric_two_words(self):
        sampler = UnigramSampler(np.array([1, 1]))
        assert sampler_weights(sampler) / sampler._cum[-1] == pytest.approx([0.5, 0.5])

    def test_power_ratio_16_to_1(self):
        # 16^0.75 = 8 exactly
        sampler = UnigramSampler(np.array([16, 1]), power=0.75)
        weights = sampler_weights(sampler)
        assert weights[0] / weights[1] == pytest.approx(8.0, abs=1e-12)

    def test_power_ratio_empirical(self):
        counts = np.array([16, 1])
        sampler = UnigramSampler(counts, power=0.75)
        draws = sampler.sample_n(np.random.PCG64(31), 100_000)
        observed = np.bincount(draws, minlength=2)
        expected = unigram_probabilities(counts, 0.75) * len(draws)
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_single_word_always_zero(self):
        sampler = UnigramSampler(np.array([1]))
        assert np.all(sampler.sample_n(np.random.PCG64(0), 50) == 0)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 10**9), min_size=1, max_size=40),
        power=st.sampled_from([0.0, 0.75, 1.0]),
        units=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    @example(counts=[1], power=1.0, units=[0.0, 0.5])
    @example(counts=[1, 10**9], power=1.0, units=[])
    @example(counts=[10**9, 1], power=0.0, units=[])
    @example(counts=[7, 7], power=0.75, units=[0.5])
    def test_guide_table_equals_searchsorted(self, counts, power, units):
        """The guide-table search returns ``searchsorted(cum, x, side="right")``
        for every draw x in [0, total): random ones, each cumulative weight
        (a draw equal to one takes the next word), each bucket's lower edge
        and its two neighbouring doubles, and the last double below total,
        whose bucket is clamped to G - 1."""
        sampler = UnigramSampler(np.array(counts), power)
        cum = sampler._cum
        total = cum[-1]
        edges = np.arange(len(cum)) * (total / len(cum))
        draws = np.concatenate((
            np.array(units) * total, cum, edges, np.nextafter(edges, 0), np.nextafter(edges, total),
            [np.nextafter(total, 0)],
        ))
        draws = draws[(draws >= 0) & (draws < total)]
        found = sampler._search(draws)
        assert found.tolist() == np.searchsorted(cum, draws, side="right").tolist()
        assert found[-1] == len(cum) - 1  # the draw just below total

    def test_blocks_draw_the_doubles_of_one_call(self):
        """``sample_n`` draws SAMPLE_BLOCK doubles at a time; the words equal
        the stream's first n doubles looked up by ``searchsorted``."""
        from rolerank.embedding import SAMPLE_BLOCK

        corpus = zipf_corpus()
        sampler = UnigramSampler(np.bincount(build_vocabulary(corpus).encode(corpus)[0]))
        n = 2 * SAMPLE_BLOCK + 123
        drawn = sampler.sample_n(np.random.PCG64(derive_seed(3, "negatives")), n)
        draws = np.array(uniform_reference(3, "negatives", n)) * sampler._cum[-1]
        assert drawn.tolist() == np.searchsorted(sampler._cum, draws, side="right").tolist()


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
            {"subsample": math.nan},
            {"lr_initial": math.inf},
            {"unigram_power": -0.5},
            {"unigram_power": 1.5},
            {"unigram_power": math.nan},
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

    def test_blas_thread_count_does_not_change_the_result(self):
        """The step's products are BLAS gemms, which OpenBLAS may split
        across threads; a seed's vectors and losses must not depend on it.
        Three children train one corpus at dim 30 and dim 300 with
        OPENBLAS_NUM_THREADS 1, 2 and unset, and their bytes must match."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import rolerank

        script = (
            "import hashlib, numpy as np\n"
            "from rolerank.embedding import EmbeddingConfig, train_skipgram\n"
            "rng = np.random.default_rng(5)\n"
            "corpus = [[f'w{i}' for i in rng.integers(0, 40, 12)] for _ in range(150)]\n"
            "for dim in (30, 300):\n"
            "    model = train_skipgram(corpus, EmbeddingConfig(dim=dim, epochs=2, seed=4))\n"
            "    print(hashlib.sha256(model.input_vectors.tobytes()).hexdigest(),\n"
            "          [x.hex() for x in model.epoch_losses])\n"
        )
        src = str(Path(rolerank.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert len(outputs[0].splitlines()) == 2
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("block", [1, 7, 10**9])
    def test_step_block_size_does_not_change_the_result(self, monkeypatch, block):
        from rolerank import embedding

        # subsampling leaves some sentences with one word, which have no step
        corpus = clique_corpus(sentences_per_clique=60)
        config = EmbeddingConfig(dim=6, epochs=2, seed=8, subsample=1e-2)
        expected = train_skipgram(corpus, config)
        monkeypatch.setattr(embedding, "STEP_BLOCK", block)
        model = train_skipgram(corpus, config)
        assert np.array_equal(model.input_vectors, expected.input_vectors)
        assert np.array_equal(model.output_vectors, expected.output_vectors)
        assert model.epoch_losses == expected.epoch_losses

    @pytest.mark.parametrize("lr_initial, loss, finite", [(1.0, r"\d\.\d+e\+\d+", True),
                                                          (100.0, "nan", False)],
                             ids=["finite", "nan"])
    def test_diverged_run_is_refused(self, monkeypatch, lr_initial, loss, finite):
        """A last epoch whose mean loss is above (1 + k) ln 2, the loss of
        the all-zero scores training starts from, diverged, also while every
        vector stays finite. No numpy RuntimeWarning leaks on the way (this
        suite turns one into an error)."""
        from rolerank import embedding

        train_epoch, vectors_finite = embedding._train_epoch, []

        def recording(weights, *args):
            loss_sum = train_epoch(weights, *args)
            vectors_finite.append(bool(np.isfinite(weights).all()))
            return loss_sum

        monkeypatch.setattr(embedding, "_train_epoch", recording)
        config = EmbeddingConfig(dim=6, epochs=2, seed=8, lr_initial=lr_initial)
        message = (rf"training diverged: final mean loss {loss} is not at most "
                   r"\(1 \+ negatives\) \* ln 2 = 4\.15888, .*embedding\.lr_initial")
        with pytest.raises(ValueError, match=message):
            train_skipgram(clique_corpus(sentences_per_clique=60), config)
        assert vectors_finite[-1] == finite

    @pytest.mark.parametrize("seed, empty", [(24, 1), (7, 0)])
    def test_epoch_without_a_pair_has_no_mean_loss(self, seed, empty):
        """Subsampling can leave an epoch of a two-word corpus without a
        pair; its mean loss is nan, not 0."""
        config = EmbeddingConfig(dim=4, epochs=2, subsample=1e-3, seed=seed)
        losses = train_skipgram([["a", "b"]] * 20, config).epoch_losses
        assert math.isnan(losses[empty])
        assert losses[1 - empty] == pytest.approx(6 * math.log(2))

    def test_divergence_is_read_from_the_last_epoch_with_a_pair(self, monkeypatch):
        """A blown-up epoch followed by one without a pair still diverged."""
        from rolerank import embedding

        train_epoch, loss_sums = embedding._train_epoch, []

        def first_blown_up(*args):
            loss_sums.append(train_epoch(*args) * (1e6 if not loss_sums else 1.0))
            return loss_sums[-1]

        monkeypatch.setattr(embedding, "_train_epoch", first_blown_up)
        config = EmbeddingConfig(dim=4, epochs=2, subsample=1e-3, seed=24)
        with pytest.raises(ValueError, match=r"training diverged: final mean loss 4\.15888e\+06 "):
            train_skipgram([["a", "b"]] * 20, config)
        assert loss_sums[1] == 0.0

    def test_cliques_cluster(self):
        corpus = clique_corpus(sentences_per_clique=300)
        model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=10, epochs=10, seed=3)))
        a, b, x = (model.input_vectors[model.vocab.index[w]] for w in ("a", "b", "x"))
        assert a @ b > a @ x

    def test_loss_decreases(self):
        corpus = clique_corpus(sentences_per_clique=200)
        model = train_skipgram(corpus, EmbeddingConfig(dim=10, epochs=8, seed=5))
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_corpus_without_a_pair_is_refused(self):
        """One-word sentences have no (center, context) pair: training would
        leave the vectors at their init and report a loss of 0."""
        message = (r"no \(center, context\) pair to train on: .*embedding\.min_count = 1 "
                   r"and embedding\.subsample = 0")
        with pytest.raises(ValueError, match=message):
            train_skipgram([["solo"]] * 4, EmbeddingConfig(dim=25, epochs=1, seed=8))

    def test_subsampling_smoke(self):
        corpus = clique_corpus(sentences_per_clique=100)
        config = EmbeddingConfig(dim=8, epochs=2, seed=4, subsample=1e-2)
        model = finalize(train_skipgram(corpus, config))
        norms = np.linalg.norm(model.input_vectors, axis=1)
        assert np.abs(norms - 1).max() < 1e-6

    def test_huge_subsample_keeps_every_word(self):
        """A threshold whose ratio to a word's frequency overflows keeps the
        word, with no numpy overflow warning (this suite turns one into an
        error): the vectors are those of a run without subsampling."""
        corpus = clique_corpus(sentences_per_clique=60)
        plain = train_skipgram(corpus, EmbeddingConfig(dim=6, epochs=2, seed=8))
        huge = train_skipgram(corpus, EmbeddingConfig(dim=6, epochs=2, seed=8, subsample=1e308))
        assert np.array_equal(huge.input_vectors, plain.input_vectors)
        assert np.array_equal(huge.output_vectors, plain.output_vectors)
        assert huge.epoch_losses == plain.epoch_losses

    def test_negatives_never_equal_their_context(self, monkeypatch):
        from rolerank import embedding

        draw = embedding._shared_negatives
        drawn = []

        def recording(sampler, rng, ids, left, right, k, vocab_size):
            negatives = draw(sampler, rng, ids, left, right, k, vocab_size)
            drawn.append((ids.copy(), left.copy(), right.copy(), negatives.copy()))
            return negatives

        monkeypatch.setattr(embedding, "_shared_negatives", recording)
        corpus = [["a", "b", "a", "c", "b", "c", "a"], ["c", "a"], ["b"]] * 20
        config = EmbeddingConfig(dim=4, window=2, negatives=5, epochs=2, seed=3)
        model = train_skipgram(corpus, config)
        assert len(drawn) == config.epochs
        vocab = set(range(len(model.vocab)))
        covered = avoided = 0
        for ids, left, right, negatives in drawn:
            centers = [i for i in range(len(ids)) if left[i] + right[i] > 0]
            # one row per token with a context, in token order
            assert negatives.shape == (len(centers), 5)
            for i, row in zip(centers, negatives):
                contexts = {int(ids[j]) for j in range(i - left[i], i + right[i] + 1) if j != i}
                if contexts == vocab:
                    covered += 1
                else:
                    assert not contexts & set(row.tolist())
                    avoided += 1
        assert covered and avoided

    def test_contexts_covering_the_vocabulary_terminate(self):
        # a center whose context words are the whole vocabulary cannot avoid
        # them; redrawing its negatives would never end
        def hung(signum, frame):
            raise TimeoutError("train_skipgram did not return within 30 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            for corpus in ([["a", "b", "a", "b"]], [["a", "b", "c", "a", "b", "c"]]):
                model = train_skipgram(corpus, EmbeddingConfig(window=5))
                assert np.all(np.isfinite(model.input_vectors))
                assert np.all(np.isfinite(model.output_vectors))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

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

    def test_epoch_layouts_are_pinned(self, monkeypatch):
        """Each epoch's (ids, left, right, lengths), as ``_train_epoch`` takes
        them, hashed as little-endian int64. The corpus draws 80 words by a
        Zipf law, so min_count = 3 drops the rare ones and subsampling thins
        the frequent ones: sentences of 0 and 1 words, before and after, are
        filtered out. The arrays are integers, so the pin holds on any CPU.
        Recorded with the windows drawn from PCG64's raw stream."""
        from rolerank import embedding

        corpus = zipf_corpus()
        vocab = build_vocabulary(corpus, 3)
        known = [sum(w in vocab for w in sentence) for sentence in corpus]
        assert len(vocab) == 50 and known.count(0) > 0 and known.count(1) > 0

        train_epoch, digests = embedding._train_epoch, []

        def recording(weights, ids, left, right, lengths, *rest):
            digest = hashlib.sha256()
            for array in (ids, left, right, lengths):
                digest.update(np.asarray(array, dtype="<i8").tobytes())
            digests.append(digest.hexdigest())
            return train_epoch(weights, ids, left, right, lengths, *rest)

        monkeypatch.setattr(embedding, "_train_epoch", recording)
        config = EmbeddingConfig(dim=4, window=3, epochs=3, min_count=3, subsample=1e-2, seed=5)
        train_skipgram(corpus, config)
        assert digests == [
            "d7030f0dc2c3bd8ca9771f6ac4275a262de1ca93d98c7b8cceb63fec17be3fd9",
            "159b55c8113cced1ea049fc8f5bb13afa0f54fbbaa46129875c7a7d340589564",
            "bc89279944c7ddba2edc335a356be0126b1ca2ad62974b97dd912cd96a1e6482",
        ]

    @pytest.mark.parametrize("case, expected", [
        ("zipf", "345b536530577ab7e0d11efd0da72428aa7631f10e3bf09314dae84e549bc76c"),
        ("c7", "1b492593dc6d46b6f14ac1fa3c1a3b22714ff4df343665f2ee8d497cf241b527"),
    ], ids=["zipf", "c7"])
    def test_step_layouts_are_pinned(self, monkeypatch, case, expected):
        """Every step's (n_in, n_pos, flat, rate, mult), as ``_sgns_step``
        takes them, hashed as little-endian int64 and float64, on the Zipf
        corpus at min_count = 3 and subsample = 1e-2 and on C7 as C7 trains
        it. They come from the integer layout and the rate schedule, with
        no BLAS in between, so the pin holds on any CPU. Recorded with the
        windows drawn from PCG64's raw stream."""
        from rolerank import embedding

        if case == "zipf":
            corpus = zipf_corpus()
            config = EmbeddingConfig(dim=4, window=3, epochs=3, min_count=3, subsample=1e-2, seed=5)
        else:
            corpus = build_corpus(make_labeled_triples(n_per_role=400, seed=700))
            config = EmbeddingConfig(dim=30, epochs=6, seed=701)
        step, digest = embedding._sgns_step, hashlib.sha256()

        def recording(vectors, n_in, n_pos, flat, rate, mult):
            digest.update(np.array([n_in, n_pos], dtype="<i8").tobytes())
            digest.update(np.asarray(flat, dtype="<i8").tobytes())
            digest.update(np.asarray(rate, dtype="<f8").tobytes())
            digest.update(np.asarray(mult, dtype="<f8").tobytes())
            return step(vectors, n_in, n_pos, flat, rate, mult)

        monkeypatch.setattr(embedding, "_sgns_step", recording)
        train_skipgram(corpus, config)
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("case, expected", [
        ("zipf", "61bc20486f6db6684a20595848a2834b8259471db7c8174e7853339c3b195c59"),
        ("c7", "5217daffb33990be463867c5e17bb3088864b4ea9b3819b3a78d16765b252e56"),
    ], ids=["zipf", "c7"])
    def test_step_rows_are_pinned(self, monkeypatch, case, expected):
        """Every step's ``rows``, the stacked matrix's rows it gathers, hashed
        as little-endian int64 on the cases of ``test_step_layouts_are_pinned``.
        Recorded with the windows drawn from PCG64's raw stream."""
        from rolerank import embedding

        corpus, config = step_layout_case(case)
        steps, digest = embedding._steps, hashlib.sha256()

        def recording(*args):
            for rows, *rest in steps(*args):
                digest.update(np.asarray(rows, dtype="<i8").tobytes())
                yield (rows, *rest)

        monkeypatch.setattr(embedding, "_steps", recording)
        train_skipgram(corpus, config)
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("subsample, expected", [
        (0.0, "85ab85c569eca05a113054c3c1e47d41864be3bf03bfd4d28423053d1d75f0f5"),
        (1e-3, "e6ff065a10babf71d711f06a3df05271fc383e2de8e48a2fad0c21e113ca113d"),
    ], ids=["no-subsample", "subsample"])
    def test_window_one_draws_are_pinned(self, monkeypatch, subsample, expected):
        """At window 1 every window is 1, whatever the window stream draws,
        so the draws of the other three streams were recorded when windows
        still came from ``Generator.integers`` and must not move: the
        initial vectors, then each epoch's ``_train_epoch`` arguments after
        the weights (layout, shared negatives, rates), hashed as their
        bytes. None of them passes through BLAS, so the pin holds on any
        CPU."""
        from rolerank import embedding

        train_epoch, digest = embedding._train_epoch, hashlib.sha256()

        def recording(weights, *rest):
            if digest.digest() == hashlib.sha256().digest():  # the first epoch
                digest.update(weights.tobytes())
            for array in rest:
                digest.update(np.asarray(array).tobytes())
            return train_epoch(weights, *rest)

        monkeypatch.setattr(embedding, "_train_epoch", recording)
        config = EmbeddingConfig(dim=4, window=1, epochs=3, min_count=3, subsample=subsample, seed=5)
        train_skipgram(zipf_corpus(), config)
        assert digest.hexdigest() == expected

    @settings(max_examples=60, deadline=None)
    @given(vocab_size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           n_sentences=st.integers(1, 150), window=st.integers(1, 5), k=st.integers(1, 5))
    @example(vocab_size=3000, seed=1, n_sentences=150, window=5, k=5)
    @example(vocab_size=1, seed=2, n_sentences=70, window=2, k=3)
    def test_steps_equal_a_unique_reference(self, vocab_size, seed, n_sentences, window, k):
        """``_steps`` on a random epoch layout equals a step-by-step
        reference that takes each step's distinct input and output rows with
        ``np.unique``; 150 sentences span three STEP_BLOCK blocks."""
        from rolerank import embedding

        rng = np.random.default_rng(seed)
        lengths = rng.integers(2, 9, size=n_sentences)
        ids = rng.integers(0, vocab_size, size=lengths.sum())
        pos = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        windows = rng.integers(1, window + 1, size=len(ids))
        left = np.minimum(pos, windows)
        right = np.minimum(np.repeat(lengths, lengths) - 1 - pos, windows)
        negatives = rng.integers(0, vocab_size, size=(len(ids), k))
        lr = rng.uniform(0.01, 0.1, size=int((left + right).sum()))
        layout = (ids, left, right, lengths, negatives, lr, vocab_size)
        got = list(embedding._steps(*layout))
        want = list(unique_reference_steps(*layout))
        assert len(got) == len(want)
        for step, expected in zip(got, want):
            assert len(step) == len(expected)
            for a, b in zip(step, expected):
                assert np.array_equal(a, b)

    def test_memory_peak(self):
        """``train_skipgram``'s tracemalloc peak on C7 stays within 10% of the
        5,625,421 bytes it peaked at when ``_steps`` took its keys from
        ``np.unique`` and ``sample_n`` drew all of an epoch's doubles at once
        (SAMPLE_BLOCK at a time: ~5.32 MB)."""
        corpus, config = step_layout_case("c7")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train_skipgram(corpus, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 5_625_421

    def test_shuffled_c7_loss_falls_every_epoch(self):
        """Read as built, the C7 corpus comes grouped by role (all of one
        role's sentences, then the next role's), and its epoch loss bottoms
        out at epoch 3-4 and rises again while the rate decays.
        ``epoch_losses`` is the online loss of each step, taken before its
        update. Shuffled, the same sentences give a loss that falls every
        epoch, so the rise comes from the order, not from the loss or the
        update."""
        corpus = build_corpus(make_labeled_triples(n_per_role=400, seed=700))
        random.Random(701).shuffle(corpus)
        losses = train_skipgram(corpus, EmbeddingConfig(epochs=6, seed=701)).epoch_losses
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:])), losses


def step_layout_case(case):
    """The corpus and config of a pinned step layout: the Zipf corpus at
    min_count = 3 and subsample = 1e-2, or C7 as C7 trains it."""
    if case == "zipf":
        return zipf_corpus(), EmbeddingConfig(dim=4, window=3, epochs=3, min_count=3, subsample=1e-2, seed=5)
    return (build_corpus(make_labeled_triples(n_per_role=400, seed=700)),
            EmbeddingConfig(dim=30, epochs=6, seed=701))


def unique_reference_steps(ids, left, right, lengths, negatives, lr, vocab_size):
    """``_steps`` one step at a time: its rows are ``np.unique`` of its input
    rows, then of its output rows, and an entry's cell is found by
    ``searchsorted`` in them. A shared negative's rate sums its center's
    pair rates in pair order, as ``np.bincount`` adds them."""
    from rolerank.embedding import SENTENCES_PER_STEP, _pairs

    k = negatives.shape[1]
    center, context = _pairs(left, right)
    center_rate = np.bincount(center, lr, len(ids))
    token_step = np.repeat(np.arange(len(lengths)) // SENTENCES_PER_STEP, lengths)
    for s in range(token_step[-1] + 1):
        tokens = np.flatnonzero(token_step == s)
        pairs = np.flatnonzero(token_step[center] == s)
        entry_in = np.concatenate((ids[center[pairs]], np.repeat(ids[tokens], k)))
        entry_out = np.concatenate((ids[context[pairs]], negatives[tokens].ravel()))
        inputs, outputs = np.unique(ids[tokens]), np.unique(entry_out)
        flat = np.searchsorted(inputs, entry_in) * len(outputs) + np.searchsorted(outputs, entry_out)
        rate = np.concatenate((lr[pairs], np.repeat(center_rate[tokens], k)))
        mult = np.concatenate((np.ones(len(pairs)), np.repeat(left[tokens] + right[tokens], k)))
        yield np.concatenate((inputs, outputs + vocab_size)), len(inputs), len(pairs), flat, rate, mult


def zipf_corpus():
    """300 sentences of 0 to 7 words drawn from 80 words by a Zipf law."""
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(80)]
    p = 1 / np.arange(1, 81) ** 1.2
    return [[str(w) for w in rng.choice(words, size=rng.integers(0, 8), p=p / p.sum())]
            for _ in range(300)]


def replay_first_epoch(corpus, config):
    """Replay the substreams of a first epoch without subsampling by hand.

    Returns the vocabulary and, per sentence with a pair, its word ids, the
    context words of each token in pair order and each token's k shared
    negatives. Windows are drawn for every token, one-word sentences
    included; negatives fill one row of k per token with a context, in
    token order and row-major, and a draw equal to any of its center's
    context words is redrawn, row-major over the rejected slots of the
    whole epoch, unless those words cover the vocabulary.
    """
    vocab = build_vocabulary(corpus)
    encoded = [[vocab.index[w] for w in sentence] for sentence in corpus]
    windows = iter(window_reference(config.seed, config.window, sum(map(len, encoded))))
    steps = []
    for sentence in encoded:
        n = len(sentence)
        spans = [next(windows) for _ in range(n)]
        if n > 1:
            contexts = [[sentence[j] for j in range(max(0, i - spans[i]), min(n, i + spans[i] + 1))
                         if j != i] for i in range(n)]
            steps.append((sentence, contexts))
    counts = Counter(word for sentence in corpus for word in sentence)
    stream = iter(UnigramSampler([counts[w] for w in vocab.words], config.unigram_power).sample_n(
        np.random.PCG64(derive_seed(config.seed, "negatives")), 100_000).tolist())
    rows = [(contexts[i], [next(stream) for _ in range(config.negatives)])
            for _, contexts in steps for i in range(len(contexts))]
    while True:
        rejected = [(contexts, row, s) for contexts, row in rows for s in range(len(row))
                    if len(set(contexts)) < len(vocab) and row[s] in contexts]
        if not rejected:
            break
        for _, row, s in rejected:
            row[s] = next(stream)
    negatives = iter(row for _, row in rows)
    return vocab, [(sentence, contexts, [next(negatives) for _ in sentence])
                   for sentence, contexts in steps]


def initial_vectors(vocab, config):
    shape = (len(vocab), config.dim)
    uniform = np.array(uniform_reference(config.seed, "init", math.prod(shape))).reshape(shape)
    return (uniform - 0.5) / config.dim, np.zeros(shape)


def pair_rates(config, n_pairs):
    return [config.lr_initial - (config.lr_initial - config.lr_final) * (i / (n_pairs - 1))
            for i in range(n_pairs)]


def step_groups(sentences):
    """The replayed sentences with a pair, SENTENCES_PER_STEP per step."""
    from rolerank.embedding import SENTENCES_PER_STEP

    return [sentences[i:i + SENTENCES_PER_STEP]
            for i in range(0, len(sentences), SENTENCES_PER_STEP)]


class TestTrainerMatchesPairOperation:
    def test_two_word_corpus_replay(self):
        """A step of SENTENCES_PER_STEP sentences, replayed by hand.

        A step takes the next SENTENCES_PER_STEP sentences that have a pair
        (the epoch's last step may take fewer), gathers their distinct
        input rows G_in and distinct output rows G_out, each ascending, and
        scores them as one block with the vectors from before the step.
        Its entries are the pairs of all its sentences in pair order (sign
        -1, the pair's rate), then each center's shared negatives in
        (center, slot) order (sign +1, the sum of the center's pair rates).
        Each entry's rate * sign * sigmoid(sign * score) is added into its
        cell of a coefficient matrix B in entry order; the input rows take
        B G_out and the output rows B^T G_in. The products are taken with
        ``@``, as the trainer takes them, since an einsum sums in another
        order. The final matrices must match bitwise.
        """
        from collections import Counter

        config = EmbeddingConfig(dim=4, window=2, negatives=2, epochs=1,
                                 lr_initial=0.1, lr_final=0.05, seed=77)
        # "a" repeats across the sentences of the first step, so their rows
        # merge; the one-word ["c"] has no pair and takes no place in a step;
        # the last step is short and scores against the rows the first moved
        corpus = [["a", "b", "a", "c"], ["c"], ["c", "a", "b", "a"], ["b", "c"],
                  ["a", "b"], ["c", "b", "a"]]
        model = train_skipgram(corpus, config)

        vocab, sentences = replay_first_epoch(corpus, config)
        steps = step_groups(sentences)
        assert len(steps) > 1 and len(steps[0]) > len(steps[-1])
        assert len(sentences) == len(corpus) - 1
        inp, out = initial_vectors(vocab, config)
        rates = iter(pair_rates(
            config, sum(len(c) for _, contexts, _ in sentences for c in contexts)))
        per_input_row, per_output_row = [], []
        for step in steps:
            pairs = [((s, i), sentence[i], context, next(rates))
                     for s, (sentence, contexts, _) in enumerate(step)
                     for i in range(len(sentence)) for context in contexts[i]]
            entries = [(word, context, -1.0, lr) for _, word, context, lr in pairs]
            for s, (sentence, _, negatives) in enumerate(step):
                for i, row in enumerate(negatives):
                    center_rate = sum(lr for token, _, _, lr in pairs if token == (s, i))
                    entries += [(sentence[i], m, 1.0, center_rate) for m in row]
            in_rows = sorted({w for sentence, _, _ in step for w in sentence})
            out_rows = sorted({m for _, m, _, _ in entries})
            cells = [(in_rows.index(w), out_rows.index(m)) for w, m, _, _ in entries]
            sign = np.array([e[2] for e in entries])
            rate = np.array([e[3] for e in entries])
            g_in, g_out = inp[in_rows], out[out_rows]
            scores = g_in @ g_out.T
            signed = np.array([scores[cell] for cell in cells]) * sign
            coefficients = rate * sign * np.exp(signed - np.logaddexp(0.0, signed))
            b = np.zeros((len(in_rows), len(out_rows)))
            for cell, c in zip(cells, coefficients):
                b[cell] += c
            inp[in_rows] = g_in - b @ g_out
            out[out_rows] = g_out - b.T @ g_in
            per_input_row += Counter(i for i, _ in cells).values()
            per_output_row += Counter(o for _, o in cells).values()

        assert max(per_input_row) > 1
        assert max(per_output_row) > 1
        assert np.array_equal(model.input_vectors, inp)
        assert np.array_equal(model.output_vectors, out)

    def test_epoch_matches_per_pair_reference(self):
        """One epoch on several sentences with repeated words equals the
        per-pair update in closed form, written here independently of the
        trainer's kernel: for a center c, context o and negatives n_j with
        sigma the logistic function, the pair's loss is -log sigma(c.o) -
        sum_j log sigma(-c.n_j), and its gradients are (sigma(c.o) - 1) o +
        sum_j sigma(c.n_j) n_j for c, (sigma(c.o) - 1) c for o and
        sigma(c.n_j) c for each n_j. A step is SENTENCES_PER_STEP sentences
        with a pair, and every pair of a step uses the vectors before it;
        the center and context gradients are taken times the pair's rate,
        each shared negative's gradient once per center times the sum of
        its pair rates, summed per row and subtracted at the end of the
        step. Only the summation order differs, so rtol 1e-12."""
        config = EmbeddingConfig(dim=5, window=3, negatives=3, epochs=1, seed=91)
        corpus = [["a", "b", "a", "c", "d", "a", "b"], ["c", "c", "e"], ["d"],
                  ["e", "a", "b", "a"], ["b", "d"]] * 3
        model = train_skipgram(corpus, config)

        def sigmoid(x):
            return 1.0 / (1.0 + np.exp(-x))

        vocab, sentences = replay_first_epoch(corpus, config)
        inp, out = initial_vectors(vocab, config)
        rates = iter(pair_rates(
            config, sum(len(c) for _, contexts, _ in sentences for c in contexts)))
        loss_sum, n_pairs = 0.0, 0
        for step in step_groups(sentences):
            grad_in, grad_out = np.zeros_like(inp), np.zeros_like(out)
            for sentence, contexts, negatives in step:
                for i, word in enumerate(sentence):
                    center, negs = inp[word], out[negatives[i]]
                    neg_sigma = sigmoid(negs @ center)
                    center_rates = 0.0
                    for context in contexts[i]:
                        lr = next(rates)
                        pos_sigma = sigmoid(center @ out[context])
                        grad_in[word] += lr * ((pos_sigma - 1.0) * out[context] + neg_sigma @ negs)
                        grad_out[context] += lr * (pos_sigma - 1.0) * center
                        center_rates += lr
                        loss_sum += -np.log(pos_sigma) - np.log(1.0 - neg_sigma).sum()
                        n_pairs += 1
                    # the same for each pair of i
                    np.add.at(grad_out, negatives[i], center_rates * np.outer(neg_sigma, center))
            inp -= grad_in
            out -= grad_out

        np.testing.assert_allclose(model.input_vectors, inp, rtol=1e-12)
        np.testing.assert_allclose(model.output_vectors, out, rtol=1e-12)
        assert model.epoch_losses[0] == pytest.approx(loss_sum / n_pairs, rel=1e-12)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        vectors = np.ones((3, 2))
        vectors[1, 0] = bad
        vectors[2, 1] = bad
        with pytest.raises(ValueError, match="training diverged: the vector of 'b' is not finite"):
            finalize(make_model(["a", "b", "c"], vectors, finalized=False))

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

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            nearest_neighbors(self.geometry_model(), "a", 0)

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

    def test_trained_vocabulary_equals_loaded(self, tmp_path):
        """A vocabulary is its words: the one training built equals the one
        read back from its saved model, ids included."""
        corpus = [["b", "a", "b"], ["c", "a", "b"]]
        model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=4, epochs=1, seed=2)))
        path = tmp_path / "embeddings.txt"
        save_embedding(model, path)
        loaded = load_embedding(path).vocab
        assert loaded == model.vocab and loaded.index == model.vocab.index == {"b": 0, "a": 1, "c": 2}

    def test_header_and_arity(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nw 0.6 0.8 0\nv 0 0 -1\n")
        model = load_embedding(path)
        assert model.vocab.words == ("w", "v")

        # a norm off 1 by more than the C2 tolerance names its line
        path.write_text("3 2\nw 0.6 0.8\n\nv 0.6 0.8000013\nu 0 3\n")
        with pytest.raises(ValueError, match=r"line 4: vector norm 1\.0000010\d* is not 1"):
            load_embedding(path)
        path.write_text("1 2\nw 0.6 0.800000799\n")
        assert load_embedding(path).vocab.words == ("w",)

        # a header without two counts >= 1, such as an empty vocabulary, names the file
        for header in ("junk\n", "0 30\n", "2 0\n"):
            path.write_text(header)
            with pytest.raises(ValueError, match=re.escape(f"{path}: header")):
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

    @pytest.mark.parametrize("word", ["Bank", "trustee,", "123", "(inc", "<NUM>"])
    def test_word_tokenize_cannot_produce_refused(self, tmp_path, word):
        """No context could ever reach such a word's vector: its triples
        would all score the all-OOV fallback, so the file is refused."""
        path = tmp_path / "emb.txt"
        path.write_text(f"3 2\n<num> 0.6 0.8\nj.p 0 1\n{word} 1 0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ")):
            load_embedding(path)
        path.write_text("3 2\n<num> 0.6 0.8\nj.p 0 1\nat&t's 1 0\n")
        assert load_embedding(path).vocab.words == ("<num>", "j.p", "at&t's")

    def test_interrupted_save_leaves_no_partial_file(self, tmp_path):
        class Interrupted:  # reading the third vector is interrupted
            shape = (3, 2)

            def __getitem__(self, i):
                if i == 2:
                    raise KeyboardInterrupt
                return np.array([0.6, 0.8])

        path = tmp_path / "emb.txt"
        path.write_text("1 2\nold 0.6 0.8\n")
        model = make_model(["a", "b", "c"], np.zeros((3, 2)))
        model.input_vectors = Interrupted()
        with pytest.raises(KeyboardInterrupt):
            save_embedding(model, path)
        assert path.read_text() == "1 2\nold 0.6 0.8\n"
        assert list(tmp_path.iterdir()) == [path]

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
