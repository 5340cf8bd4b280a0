"""Skip-gram word embeddings with negative sampling, trained from scratch.

For every center word an effective window is drawn uniformly from
[1, window]. One sentence is one update step, after the gather / score /
scatter restructuring of Ji et al. 2016 ("Parallelizing Word2Vec in
Shared and Distributed Memory"): every in-window (center, context) pair
of the sentence is scored against k sampled negative words with the
vectors as they stood before the step, and the gradients are summed per
row and applied at once. The learning rate decays linearly over the
total number of pairs. Vectors are finalized onto the unit hypersphere
before any querying; the default dimensionality is 30.

All randomness is driven by the config seed through named substreams
(init / window / subsample / negatives), which makes training
bit-reproducible.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import open_text
from .seeds import make_rng

logger = logging.getLogger(__name__)

ZERO_NORM_EPS = 1e-12


@dataclass(frozen=True)
class Vocabulary:
    """Retained words in deterministic order (count desc, then lexicographic)."""

    words: tuple[str, ...]
    counts: dict[str, int]  # empty for models loaded from disk
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 30
    window: int = 5
    negatives: int = 5
    epochs: int = 20
    lr_initial: float = 0.025
    lr_final: float = 0.0001
    min_count: int = 1
    unigram_power: float = 0.75
    subsample: float = 0.0  # frequent-word subsampling threshold, 0 = off
    seed: int = 1

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.window < 1 or self.negatives < 1 or self.epochs < 1 or self.min_count < 1:
            raise ValueError("window, negatives, epochs and min_count must be >= 1")
        if not 0 < self.lr_final < self.lr_initial:
            raise ValueError("need 0 < lr_final < lr_initial")
        if self.subsample < 0:
            raise ValueError("subsample must be >= 0")


@dataclass
class EmbeddingModel:
    """Vocabulary plus a |V| x dim matrix of word vectors.

    ``output_vectors`` (the context-side matrix) exists only while
    training; ``finalize`` drops it and renormalizes every word vector to
    unit length.
    """

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray | None = None
    finalized: bool = False
    epoch_losses: tuple[float, ...] = ()
    zero_replaced: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def vector(self, word: str) -> np.ndarray:
        return self.input_vectors[self.vocab.index[word]]


def build_vocabulary(corpus: Sequence[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count words across the corpus and retain those seen >= min_count times."""
    if not corpus:
        raise ValueError("corpus is empty")
    counter: Counter[str] = Counter()
    for sentence in corpus:
        counter.update(sentence)
    retained = sorted(
        (w for w, c in counter.items() if c >= min_count),
        key=lambda w: (-counter[w], w),
    )
    if not retained:
        raise ValueError(f"no word occurs at least min_count={min_count} times")
    return Vocabulary(
        words=tuple(retained),
        counts={w: counter[w] for w in retained},
        index={w: i for i, w in enumerate(retained)},
    )


class UnigramSampler:
    """Draws word ordinals with probability proportional to count^power."""

    def __init__(self, vocab: Vocabulary, power: float = 0.75):
        if not vocab.counts:
            raise ValueError("vocabulary has no counts (loaded models are query-only)")
        counts = np.array([vocab.counts[w] for w in vocab.words], dtype=np.float64)
        weights = counts**power
        self._cum = np.cumsum(weights)
        self.probabilities = weights / self._cum[-1]

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.sample_n(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = rng.random(n) * self._cum[-1]
        return np.searchsorted(self._cum, draws, side="right")


def _pair_core(centers: np.ndarray, outs: np.ndarray):
    """Loss and gradients for P positive pairs against stacked outputs.

    ``centers`` is (P, d) and ``outs`` is (P, 1 + k, d): for each pair, row
    0 is the context vector and rows 1.. are its negatives. Returns (loss
    per pair, grad wrt each center, grad wrt each output row). The loss is
    -log sigmoid(u_ctx . v) - sum_j log sigmoid(-u_negj . v); with the
    context score sign-flipped it collapses to sum logaddexp(0, t), and
    sigmoid(t) = exp(t - logaddexp(0, t)) keeps everything overflow-free.
    Each pair's results depend on that pair's rows alone.
    """
    scores = np.einsum("pd,pjd->pj", centers, outs)
    scores[:, 0] = -scores[:, 0]
    ell = np.logaddexp(0.0, scores)
    coeff = np.exp(scores - ell)  # d loss / d score, up to the sign of column 0
    coeff[:, 0] = -coeff[:, 0]
    grad_centers = np.einsum("pj,pjd->pd", coeff, outs)
    grad_outs = coeff[:, :, None] * centers[:, None, :]
    return ell.sum(axis=1), grad_centers, grad_outs


def pair_loss_and_gradients(
    center_vec: np.ndarray,
    context_vec: np.ndarray,
    negative_vecs: Sequence[np.ndarray],
):
    """Negative-sampling loss and exact analytic gradients for one pair.

    Returns (loss, grad_center, grad_context, grad_negatives) where
    grad_negatives is a (k, d) array. Requires at least one negative and
    uniform dimensionality.
    """
    center = np.asarray(center_vec, dtype=np.float64)
    if center.ndim != 1:
        raise ValueError("center_vec must be a 1-d vector")
    negatives = [np.asarray(v, dtype=np.float64) for v in negative_vecs]
    if not negatives:
        raise ValueError("at least one negative vector is required")
    rows = [np.asarray(context_vec, dtype=np.float64)] + negatives
    for v in rows:
        if v.shape != center.shape:
            raise ValueError(
                f"dimension mismatch: center has shape {center.shape}, got {v.shape}"
            )
    loss, grad_center, grad_outs = _pair_core(center[None], np.stack(rows)[None])
    return float(loss[0]), grad_center[0], grad_outs[0, 0], grad_outs[0, 1:]


def _keep_probabilities(vocab: Vocabulary, threshold: float) -> np.ndarray:
    """Word2vec-style keep probability per word ordinal, clipped to 1."""
    counts = np.array([vocab.counts[w] for w in vocab.words], dtype=np.float64)
    freq = counts / counts.sum()
    keep = np.sqrt(threshold / freq) + threshold / freq
    return np.minimum(keep, 1.0)


def _epoch_layouts(
    encoded: list[np.ndarray], config: EmbeddingConfig, keep: np.ndarray | None
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per epoch, the effective sentences as flat (ids, left, right, lengths).

    ``ids`` holds the kept tokens of every non-empty sentence back to
    back, ``left``/``right`` how many in-window context words each token
    has on either side, and ``lengths`` the sentence lengths. Each epoch
    draws the subsampling and window substreams once, in a fixed order,
    so a config always yields the same layouts.
    """
    tokens = np.concatenate(encoded)
    sentence_of = np.repeat(np.arange(len(encoded)), [len(s) for s in encoded])
    win_rng = make_rng(config.seed, "window")
    sub_rng = make_rng(config.seed, "subsample") if keep is not None else None
    layouts = []
    for _ in range(config.epochs):
        ids, sentence = tokens, sentence_of
        if sub_rng is not None:
            kept = sub_rng.random(len(tokens)) < keep[tokens]
            ids, sentence = tokens[kept], sentence_of[kept]
        lengths = np.bincount(sentence)
        lengths = lengths[lengths > 0]
        pos = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        windows = win_rng.integers(1, config.window + 1, size=len(ids))
        left = np.minimum(pos, windows)
        right = np.minimum(np.repeat(lengths, lengths) - 1 - pos, windows)
        layouts.append((ids, left, right, lengths))
    return layouts


def _sentence_pairs(ids: np.ndarray, left: np.ndarray, right: np.ndarray):
    """(centers, contexts) word ids of every pair in one sentence.

    Center-major: pairs run by center position, then context position.
    """
    counts = left + right
    center_at = np.repeat(np.arange(len(ids)), counts)
    context_at = np.arange(len(center_at)) - np.repeat(np.cumsum(counts) - counts + left, counts)
    context_at += context_at >= 0  # skip the center itself
    context_at += center_at
    return ids[center_at], ids[context_at]


def _draw_negatives(sampler, rng, contexts: np.ndarray, k: int) -> np.ndarray:
    """(P, k) negatives for P pairs from the ``negatives`` substream.

    Slots are filled row-major; a draw equal to its pair's context is
    redrawn (again row-major over the rejected slots) until none is left,
    except with a one-word vocabulary, where it cannot be avoided.
    ``Generator.random`` yields the same values however its draws are
    chunked, so successive calls read one unbroken stream.
    """
    negatives = sampler.sample_n(rng, len(contexts) * k).reshape(-1, k)
    if len(sampler.probabilities) > 1:
        rejected = negatives == contexts[:, None]
        while rejected.any():
            negatives[rejected] = sampler.sample_n(rng, int(np.count_nonzero(rejected)))
            rejected = negatives == contexts[:, None]
    return negatives


def _subtract_rows(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """matrix[rows] -= updates, with the updates to a repeated row summed.

    A stable argsort groups each row's updates in their original order;
    np.add.reduceat reduces every group and the sum is subtracted once.
    """
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    first = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    matrix[rows[first]] -= np.add.reduceat(updates[order], first, axis=0)


def train_skipgram(
    corpus: Sequence[Sequence[str]], config: EmbeddingConfig
) -> EmbeddingModel:
    """Train a (non-finalized) skip-gram model over the pooled corpus.

    One sentence is one update step. Every (center, context) pair of the
    sentence is scored against its k negatives using the vectors as they
    stood before the step; the pair at global index i gets learning rate
    lr_initial - (lr_initial - lr_final) * i / (total_pairs - 1). Each
    pair contributes lr * gradient to its center's input row and to its
    context's and negatives' output rows. The contributions to one row are
    ordered by pair, and within a pair context first, then negatives in
    draw order; they are reduced with np.add.reduceat and subtracted once.
    The run is bit-reproducible for a fixed seed.
    """
    vocab = build_vocabulary(corpus, config.min_count)
    encoded = []
    for sentence in corpus:
        ids = np.array(
            [vocab.index[w] for w in sentence if w in vocab.index], dtype=np.intp
        )
        if len(ids) > 0:
            encoded.append(ids)

    vocab_size, dim, k = len(vocab), config.dim, config.negatives
    # input vectors are rows [0, V), output vectors rows [V, 2V) of one
    # matrix, so a step is one gather and one scatter
    weights = np.zeros((2 * vocab_size, dim))
    weights[:vocab_size] = (make_rng(config.seed, "init").random((vocab_size, dim)) - 0.5) / dim
    sampler = UnigramSampler(vocab, config.unigram_power)
    neg_rng = make_rng(config.seed, "negatives")
    keep = _keep_probabilities(vocab, config.subsample) if config.subsample > 0 else None

    layouts = _epoch_layouts(encoded, config, keep)
    total_pairs = sum(int(left.sum() + right.sum()) for _, left, right, _ in layouts)
    lr_span = config.lr_initial - config.lr_final
    denom = max(total_pairs - 1, 1)
    losses = []
    pair_index = 0
    for ids, left, right, lengths in layouts:
        loss_sum = 0.0
        start, first_pair = 0, pair_index
        for end in np.cumsum(lengths).tolist():
            center, context = _sentence_pairs(ids[start:end], left[start:end], right[start:end])
            start = end
            n = len(center)
            if n == 0:
                continue
            rows = np.empty((n, k + 2), dtype=np.intp)
            rows[:, 0] = center
            rows[:, 1] = context + vocab_size
            rows[:, 2:] = _draw_negatives(sampler, neg_rng, context, k) + vocab_size
            vectors = weights[rows]
            loss, grad_center, grad_outs = _pair_core(vectors[:, 0], vectors[:, 1:])
            lr = config.lr_initial - lr_span * (np.arange(pair_index, pair_index + n) / denom)
            updates = np.empty_like(vectors)
            np.multiply(lr[:, None], grad_center, out=updates[:, 0])
            np.multiply(lr[:, None, None], grad_outs, out=updates[:, 1:])
            _subtract_rows(weights, rows.ravel(), updates.reshape(-1, dim))
            loss_sum += loss.sum()
            pair_index += n
        n_pairs = pair_index - first_pair
        losses.append(float(loss_sum / n_pairs) if n_pairs else 0.0)

    return EmbeddingModel(
        vocab=vocab,
        input_vectors=weights[:vocab_size],
        output_vectors=weights[vocab_size:],
        finalized=False,
        epoch_losses=tuple(losses),
    )


def finalize(model: EmbeddingModel) -> EmbeddingModel:
    """Project every word vector onto the unit hypersphere.

    A vector with (near-)zero norm is replaced by the first basis vector
    and the word is recorded in ``zero_replaced``; output vectors are
    dropped. The input model must not already be finalized.
    """
    if model.finalized:
        raise ValueError("model is already finalized")
    vectors = np.array(model.input_vectors, dtype=np.float64, copy=True)
    norms = np.linalg.norm(vectors, axis=1)
    zero_rows = np.flatnonzero(norms <= ZERO_NORM_EPS)
    zero_words = tuple(model.vocab.words[i] for i in zero_rows)
    for i in zero_rows:
        vectors[i] = 0.0
        vectors[i, 0] = 1.0
        norms[i] = 1.0
        logger.warning("zero-norm vector for %r replaced by basis vector e1",
                       model.vocab.words[i])
    vectors /= norms[:, None]
    return EmbeddingModel(
        vocab=model.vocab,
        input_vectors=vectors,
        output_vectors=None,
        finalized=True,
        epoch_losses=model.epoch_losses,
        zero_replaced=zero_words,
    )


def nearest_neighbors(
    model: EmbeddingModel, seed_word: str, k: int
) -> list[tuple[str, float]]:
    """Top-k words by cosine similarity to seed_word, excluding itself.

    On finalized (unit-norm) vectors the cosine is a plain dot product.
    Ties are broken by vocabulary order; asking for more neighbors than
    exist truncates to |V| - 1.
    """
    if not model.finalized:
        raise ValueError("nearest_neighbors requires a finalized model")
    if k < 1:
        raise ValueError("k must be >= 1")
    if seed_word not in model.vocab:
        raise KeyError(f"word {seed_word!r} is not in the vocabulary")
    seed_idx = model.vocab.index[seed_word]
    sims = model.input_vectors @ model.input_vectors[seed_idx]
    order = sorted(
        (i for i in range(len(model.vocab)) if i != seed_idx),
        key=lambda i: (-sims[i], i),
    )
    return [(model.vocab.words[i], float(sims[i])) for i in order[:k]]


def save_embedding(model: EmbeddingModel, path) -> None:
    """Write a finalized model in the text format: header, one word per line."""
    if not model.finalized:
        raise ValueError("only finalized models are persisted")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(model.vocab)} {model.dim}\n")
        for i, word in enumerate(model.vocab.words):
            floats = " ".join(repr(float(x)) for x in model.input_vectors[i])
            f.write(f"{word} {floats}\n")


def load_embedding(path) -> EmbeddingModel:
    """Load a finalized model written by save_embedding.

    Validates the header counts, per-line arity and that every value is a
    finite number. Counts are not stored in the format, so loaded models
    are query-only (they can back feature extraction and neighbor queries
    but not further training).
    """
    with open_text(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: header must be '<vocab_size> <dim>'")
        try:
            expected_v, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: header must be two integers") from None
        words: list[str] = []
        rows: list[np.ndarray] = []
        index: dict[str, int] = {}
        for line_no, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}: line {line_no}: expected {dim + 1} fields, got {len(parts)}"
                )
            word = parts[0]
            if word in index:
                raise ValueError(f"{path}: line {line_no}: duplicate word {word!r}")
            index[word] = len(words)
            words.append(word)
            try:
                row = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: non-numeric value") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: line {line_no}: non-finite value")
            rows.append(row)
    if len(words) != expected_v:
        raise ValueError(f"{path}: header claims {expected_v} words, found {len(words)}")
    vocab = Vocabulary(words=tuple(words), counts={}, index=index)
    return EmbeddingModel(
        vocab=vocab,
        input_vectors=np.vstack(rows) if rows else np.zeros((0, dim)),
        output_vectors=None,
        finalized=True,
    )

