"""Skip-gram word embeddings with negative sampling, trained from scratch.

For every center word an effective window is drawn uniformly from
[1, window]. Training follows both halves of Ji et al. 2016
("Parallelizing Word2Vec in Shared and Distributed Memory"). Negatives
are shared: each epoch draws one row of k negative words per center (a
token with at least one in-window context), and every (center, context)
pair of that center uses it. Steps are gather / score / scatter: one
sentence is one step, every pair of the sentence is scored with the
vectors as they stood before the step, and the gradients are summed per
row and applied at once. The learning rate decays linearly over the
total number of pairs. Vectors are finalized onto the unit hypersphere
before any querying; the default dimensionality is 30.

Negatives come from the ``negatives`` substream in token order, filling
slots row-major. A draw equal to any of its center's in-window context
words is redrawn, row-major over the rejected slots, until none is left.
A center whose context words cover the whole vocabulary keeps its
draws, since no word could replace them.

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

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = rng.random(n) * self._cum[-1]
        return np.searchsorted(self._cum, draws, side="right")


def _sgns_terms(centers, contexts, owner, negatives, lr):
    """Loss and lr-weighted gradients for t centers that share negatives.

    ``centers`` is (t, d), ``negatives`` (t, k, d) and ``contexts`` (p, d);
    pair i joins context i to center ``owner[i]`` with weight ``lr[i]``. A
    pair's loss is -log sigmoid(u_ctx . v) - sum_j log sigmoid(-u_negj . v)
    over its center's negatives; sigmoid(s) = exp(s - logaddexp(0, s))
    keeps it overflow-free. Returns the loss per pair and lr * the gradient
    wrt each pair's center and context; a center's shared negatives take
    their gradient once, times the sum of its pairs' weights. Gradients
    are scaled after they are formed, so weight 1 gives the plain gradient.
    """
    at_pair = centers[owner]
    pos = np.einsum("pd,pd->p", at_pair, contexts)
    neg = np.einsum("td,tkd->tk", centers, negatives)
    pos_loss = np.logaddexp(0.0, -pos)
    neg_loss = np.logaddexp(0.0, neg)
    pos_coeff = -np.exp(-pos - pos_loss)  # d loss / d pos
    neg_coeff = np.exp(neg - neg_loss)  # d loss / d neg
    neg_pull = np.einsum("tk,tkd->td", neg_coeff, negatives)
    weight = np.bincount(owner, weights=lr, minlength=len(centers))
    grad_centers = lr[:, None] * (pos_coeff[:, None] * contexts + neg_pull[owner])
    grad_contexts = lr[:, None] * (pos_coeff[:, None] * at_pair)
    grad_negatives = weight[:, None, None] * (neg_coeff[:, :, None] * centers[:, None, :])
    return pos_loss + neg_loss.sum(axis=1)[owner], grad_centers, grad_contexts, grad_negatives


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
    loss, grad_center, grad_context, grad_negatives = _sgns_terms(
        center[None], rows[0][None], np.zeros(1, dtype=np.intp), np.stack(negatives)[None], np.ones(1)
    )
    return float(loss[0]), grad_center[0], grad_context[0], grad_negatives[0]


def _keep_probabilities(vocab: Vocabulary, threshold: float) -> np.ndarray:
    """Word2vec-style keep probability per word ordinal, clipped to 1."""
    counts = np.array([vocab.counts[w] for w in vocab.words], dtype=np.float64)
    freq = counts / counts.sum()
    keep = np.sqrt(threshold / freq) + threshold / freq
    return np.minimum(keep, 1.0)


def _epoch_layouts(encoded: list[np.ndarray], config: EmbeddingConfig, keep: np.ndarray | None):
    """Yield, per epoch, the effective sentences as flat (ids, left, right, lengths).

    ``ids`` holds the kept tokens of every non-empty sentence back to
    back, ``left``/``right`` how many in-window context words each token
    has on either side, and ``lengths`` the sentence lengths. Each epoch
    draws the subsampling and window substreams once, in a fixed order,
    from substreams made afresh for every call, so a config always yields
    the same layouts and only one epoch's layout is held at a time.
    """
    tokens = np.concatenate(encoded)
    sentence_of = np.repeat(np.arange(len(encoded)), [len(s) for s in encoded])
    win_rng = make_rng(config.seed, "window")
    sub_rng = make_rng(config.seed, "subsample") if keep is not None else None
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
        yield ids, left, right, lengths


def _shared_negatives(sampler, rng, ids, left, right, k: int) -> np.ndarray:
    """(T, k) negative word ids for the epoch's T tokens that have a context.

    Row i belongs to the i-th such token in token order, and all of its
    pairs share it. Slots are filled row-major from ``rng``; a draw equal
    to any of its center's in-window context words is redrawn (again
    row-major over the rejected slots) until none is left, except for a
    center whose context words cover the whole vocabulary. Every other
    center has a word left to draw, so the loop ends.
    """
    window = int(max(left.max(initial=0), right.max(initial=0)))

    def in_window(at, words):
        """Whether each word is an in-window context of the token at ``at``."""
        hit = np.zeros(np.broadcast(at, words).shape, dtype=bool)
        for offset in range(1, window + 1):
            hit |= (left[at] >= offset) & (ids.take(at - offset, mode="clip") == words)
            hit |= (right[at] >= offset) & (ids.take(at + offset, mode="clip") == words)
        return hit

    centers = np.flatnonzero(left + right)
    vocab_size = len(sampler.probabilities)
    covered = np.zeros(len(centers), dtype=bool)
    if vocab_size <= 2 * window:  # only then can the contexts cover the vocabulary
        covered = in_window(centers[:, None], np.arange(vocab_size)).all(axis=1)
    negatives = sampler.sample_n(rng, len(centers) * k).reshape(-1, k)
    redraw = np.flatnonzero(in_window(centers[:, None], negatives) & ~covered[:, None])
    flat = negatives.reshape(-1)
    while len(redraw):
        flat[redraw] = sampler.sample_n(rng, len(redraw))
        redraw = redraw[in_window(centers[redraw // k], flat[redraw])]
    return negatives


def _pairs(left: np.ndarray, right: np.ndarray):
    """(center, context) token positions of every in-window pair.

    Center-major: pairs run by center position, then context position.
    """
    counts = left + right
    center = np.repeat(np.arange(len(counts)), counts)
    context = np.arange(len(center))
    context -= np.repeat(np.cumsum(counts) - counts + left, counts)
    context += context >= 0  # skip the center itself
    context += center
    return center, context


def _subtract_rows(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """matrix[rows] -= updates, with the updates to a repeated row summed.

    A stable argsort groups each row's updates in their original order;
    np.add.reduceat reduces every group and the sum is subtracted once.
    """
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    first = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    matrix[rows[first]] -= np.add.reduceat(updates[order], first, axis=0)


def _train_epoch(weights, ids, left, right, lengths, negatives, lr) -> float:
    """Take one epoch's sentence steps on ``weights`` in place.

    ``negatives`` holds the output rows of the epoch's shared negatives
    (see ``_shared_negatives``) and ``lr`` the rates of its pairs in
    order. Returns the sum of the pair losses. The epoch's pair arrays
    live only in this call, so one epoch's are freed before the next's.
    """
    vocab_size, dim = len(weights) // 2, weights.shape[1]
    owners, contexts = _pairs(left, right)
    contexts = ids.take(contexts)
    contexts += vocab_size
    ends = np.cumsum(lengths)
    pair_ends = np.cumsum(left + right)[ends - 1]
    loss_sum, start, pair_start, row = 0.0, 0, 0, 0
    for end, pair_end in zip(ends.tolist(), pair_ends.tolist()):
        if pair_start == pair_end:  # a one-word sentence has no pairs
            start = end
            continue
        centers = ids[start:end]
        owner = owners[pair_start:pair_end] - start
        context_rows = contexts[pair_start:pair_end]
        shared = negatives[row:row + len(centers)]
        loss, grad_centers, grad_contexts, grad_negatives = _sgns_terms(
            weights[centers], weights[context_rows], owner, weights[shared], lr[pair_start:pair_end]
        )
        _subtract_rows(
            weights,
            np.concatenate((centers[owner], context_rows, shared.ravel())),
            np.concatenate((grad_centers, grad_contexts, grad_negatives.reshape(-1, dim))),
        )
        loss_sum += loss.sum()
        start, pair_start, row = end, pair_end, row + len(centers)
    return loss_sum


def train_skipgram(
    corpus: Sequence[Sequence[str]], config: EmbeddingConfig
) -> EmbeddingModel:
    """Train a (non-finalized) skip-gram model over the pooled corpus.

    Each epoch first draws its shared negatives (``_shared_negatives``).
    Then one sentence is one update step, scored with the vectors as they
    stood before the step. The pair at global index i gets learning rate
    lr_initial - (lr_initial - lr_final) * i / (total_pairs - 1). A pair's
    loss is its positive term plus its center's negative term, so the
    center's input row takes lr * the pair's center gradient and the
    context's output row lr * the context gradient. Each shared
    negative's output row takes the center's negative gradient once,
    scaled by the sum of the rates of the center's pairs, which equals
    what each pair would add; ``epoch_losses`` holds each epoch's mean
    per-pair loss. The contributions to an input row are ordered by pair;
    those to an output row by pair as a context, then by (center, slot)
    as a negative. Each row's are reduced with np.add.reduceat and
    subtracted once. The run is bit-reproducible for a fixed seed.
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
    # matrix, so a step is one scatter
    weights = np.zeros((2 * vocab_size, dim))
    weights[:vocab_size] = (make_rng(config.seed, "init").random((vocab_size, dim)) - 0.5) / dim
    sampler = UnigramSampler(vocab, config.unigram_power)
    neg_rng = make_rng(config.seed, "negatives")
    keep = _keep_probabilities(vocab, config.subsample) if config.subsample > 0 else None

    total_pairs = sum(
        int(left.sum() + right.sum()) for _, left, right, _ in _epoch_layouts(encoded, config, keep)
    )
    lr_span = config.lr_initial - config.lr_final
    denom = max(total_pairs - 1, 1)
    losses = []
    pair_index = 0
    for ids, left, right, lengths in _epoch_layouts(encoded, config, keep):
        negatives = _shared_negatives(sampler, neg_rng, ids, left, right, k)
        negatives += vocab_size  # output rows
        n_pairs = int(left.sum() + right.sum())
        lr = config.lr_initial - lr_span * (np.arange(pair_index, pair_index + n_pairs) / denom)
        loss_sum = _train_epoch(weights, ids, left, right, lengths, negatives, lr)
        losses.append(float(loss_sum / n_pairs) if n_pairs else 0.0)
        pair_index += n_pairs

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

