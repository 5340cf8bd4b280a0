"""Skip-gram word embeddings with negative sampling, trained from scratch.

For every center word an effective window is drawn uniformly from
[1, window]. Training follows both halves of Ji et al. 2016
("Parallelizing Word2Vec in Shared and Distributed Memory"). Negatives
are shared: each epoch draws one row of k negative words per center (a
token with at least one in-window context), and every (center, context)
pair of that center uses it. Negatives come from the ``negatives``
substream in token order, filling slots row-major. A draw equal to any
of its center's in-window context words is redrawn, row-major over the
rejected slots, until none is left. A center whose context words cover
the whole vocabulary keeps its draws, since no word could replace them.

Steps are gather / score / scatter. A step is SENTENCES_PER_STEP
consecutive sentences that each have a pair (the epoch's last step may
hold fewer), scored with the vectors as they stood before it (minibatch
SGD from one snapshot). It gathers its sentences' distinct input rows
G_in and distinct output rows G_out, each ascending, and scores them as
one block G_in G_out^T. Its entries are cells of that block: first its
pairs in pair order, then its centers' shared negatives in (center,
slot) order. An entry of score s has loss log(1 + exp(-s)) if it is a
pair and log(1 + exp(s)) if it is a negative. A pair's rate is its
learning rate: the pair at global index i (over all epochs) gets
lr_initial - (lr_initial - lr_final) * i / (total_pairs - 1). A shared
negative's rate is the sum of its center's pair rates, which equals
what each pair would add, and its loss counts once per pair. The
entries' d loss / d score times their rates are summed, in entry order,
into one coefficient matrix B; the input rows take B G_out and the
output rows B^T G_in, subtracted in place on the gathered rows before
one scatter. The score block and both gradient products are BLAS gemms,
the level-3 form Ji et al. build each step on. Vectors are finalized
onto the unit hypersphere before any querying; the default
dimensionality is 30.

Steps are laid out STEP_BLOCK at a time, with no sort: a table over the
2V rows marks the U rows a block reads, which come out ascending, each
with its rank, and a second table marks the block's (step, rank) cells,
at most STEP_BLOCK x U of them. Its marked cells are every step's
distinct rows in (step, row) order, and each entry's cell gives its
place among them. A negative draw takes its word through a guide table
(``UnigramSampler``), which finds the word a binary search over the
cumulative weights would.

All randomness is driven by the config seed through four named PCG64
streams (init / window / subsample / negatives), read by ``random_raw``:
a uniform double is a raw draw's top 53 bits times 2**-53 (the doubles
of ``Generator.random``), and a window is 1 + a raw draw modulo the
configured window (bias at most window / 2**64). That makes training
bit-reproducible on one machine and numpy build, whatever the number of
BLAS threads. It is not reproducible across CPU kernels, whose SIMD
paths sum in different orders.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import NUM_TOKEN, open_atomic, open_text, token_of, tokenize
from .seeds import make_stream

logger = logging.getLogger(__name__)

ZERO_NORM_EPS = 1e-12
UNIT_NORM_TOL = 1e-6  # how far a loaded vector's norm may be from 1
# how far above (1 + k) ln 2 a last epoch may end, relative: one epoch on a few
# triples ends up to ~4e-6 above it, a blow-up orders of magnitude above it
DIVERGENCE_MARGIN = 0.01


# Pieces a vocabulary's memo holds before it is cleared. Full, it holds a
# 0.96 MB dict table and its pieces: a str of n characters is 49 + n bytes in
# ASCII, 74 + 2n beyond Latin-1 and 76 + 4n beyond the BMP (sys.getsizeof).
# Full of 12-character pieces it took 3.0 MB, 5.0 MB beyond the BMP
# (tracemalloc). The cap bounds how many pieces it keeps, not their length.
PIECE_CACHE = 1 << 15


class _PieceIds(dict):
    """Lowercased whitespace piece -> its token's id, or -1 if it has no
    token or its token is out of the vocabulary. A miss runs ``token_of``
    once and stores the id, clearing the memo first if it is full."""

    def __init__(self, index: dict[str, int]):
        super().__init__()
        self.index = index

    def __missing__(self, piece: str) -> int:
        if len(self) >= PIECE_CACHE:
            self.clear()
        token = token_of(piece)
        self[piece] = i = -1 if token is None else self.index.get(token, -1)
        return i


@dataclass(frozen=True)
class Vocabulary:
    """A model's words, a word's id its place among them: by count desc,
    then lexicographic, as trained, and in file order, as loaded, which is
    the same. ``index`` (word -> id) and the piece memo are derived from
    ``words`` and live as long as the vocabulary; neither is its value."""

    words: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    _pieces: _PieceIds = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {w: i for i, w in enumerate(self.words)}
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_pieces", _PieceIds(index))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def encode(self, token_lists: Iterable[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """Each token's id, back to back (-1 if not in the vocabulary), and each list's length."""
        get, ids, lengths = self.index.get, [], []
        for tokens in token_lists:
            ids += map(get, tokens, repeat(-1))
            lengths.append(len(tokens))
        return np.array(ids, dtype=np.intp), np.array(lengths, dtype=np.intp)

    def encode_texts(self, texts: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each whitespace piece's id, back to back, and each text's number
        of pieces. A piece's id is -1 if ``tokenize`` drops it or its token
        is out of the vocabulary, so the ids >= 0 of a text are those of
        ``encode([tokenize(text)])``, in the same order. Pieces are mapped
        through the vocabulary's memo: a piece seen before costs one dict
        lookup in C; a new one runs ``token_of`` once (``_PieceIds``)."""
        lookup, ids, lengths = self._pieces.__getitem__, [], []
        for text in texts:
            pieces = text.lower().split()
            ids += map(lookup, pieces)
            lengths.append(len(pieces))
        return np.array(ids, dtype=np.intp), np.array(lengths, dtype=np.intp)


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
        # a seed is hashed as text and may be any integer; the other ints must fit int64
        if not 2 <= self.dim < 2**63:
            raise ValueError("dim must lie in [2, 2**63)")
        for name in ("window", "negatives", "epochs", "min_count"):
            if not 1 <= getattr(self, name) < 2**63:
                raise ValueError(f"{name} must lie in [1, 2**63)")
        if not all(map(math.isfinite, (self.lr_initial, self.lr_final, self.subsample))):
            raise ValueError("lr_initial, lr_final and subsample must be finite")
        if not 0 < self.lr_final < self.lr_initial:
            raise ValueError("need 0 < lr_final < lr_initial")
        if self.subsample < 0:
            raise ValueError("subsample must be >= 0")
        # 0 = uniform, 1 = unigram; the bound keeps count ** power finite
        if not 0 <= self.unigram_power <= 1:
            raise ValueError("unigram_power must lie in [0, 1]")


@dataclass
class EmbeddingModel:
    """Vocabulary plus a |V| x dim matrix of word vectors.

    ``output_vectors`` (the context-side matrix) exists only while
    training; ``finalize`` drops it and renormalizes every word vector to
    unit length, so a model is finalized exactly when it has none.
    """

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray | None = None
    epoch_losses: tuple[float, ...] = ()
    zero_replaced: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    @property
    def finalized(self) -> bool:
        return self.output_vectors is None


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
    return Vocabulary(words=tuple(retained))


def _uniform(stream: np.random.PCG64, shape) -> np.ndarray:
    """Doubles in [0, 1) of ``shape``: each a raw draw's top 53 bits times 2**-53."""
    return (stream.random_raw(shape) >> 11) * 2.0**-53


SAMPLE_BLOCK = 1 << 14  # draws UnigramSampler searches at a time; bounds its temporaries


class UnigramSampler:
    """Draws word ids with probability proportional to counts[id]^power,
    for ``counts`` of one count >= 1 per id.

    A draw x in [0, total) takes the first word whose cumulative weight
    exceeds it, ``searchsorted(cum, x, side="right")``, found through a
    guide table (Chen & Asau 1974; Devroye 1986, III.2.4): x falls in
    bucket min(int(x * G / total), G - 1) of G = V buckets, whose guide
    entry counts the cumulative weights in lower buckets, and the search
    walks on from there. Bucketing is monotone, so no entry overshoots.
    """

    def __init__(self, counts, power: float = 0.75):
        weights = np.asarray(counts, dtype=np.float64) ** power
        self._cum = np.cumsum(weights)
        self._scale = len(weights) / self._cum[-1]
        self._guide = np.searchsorted(self._bucket(self._cum), np.arange(len(weights)))

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        return np.minimum((x * self._scale).astype(np.intp), len(self._cum) - 1)

    def _search(self, draws: np.ndarray) -> np.ndarray:
        """``searchsorted(cum, draws, side="right")`` for draws in [0, total)."""
        found = self._guide[self._bucket(draws)]
        walk = np.flatnonzero(self._cum[found] <= draws)
        while len(walk):
            found[walk] += 1
            walk = walk[self._cum[found[walk]] <= draws[walk]]
        return found

    def sample_n(self, stream: np.random.PCG64, n: int) -> np.ndarray:
        """n draws, SAMPLE_BLOCK at a time: the same doubles as one ``_uniform(stream, n)``."""
        found = np.empty(n, dtype=np.intp)
        for start in range(0, n, SAMPLE_BLOCK):
            draws = _uniform(stream, min(n - start, SAMPLE_BLOCK)) * self._cum[-1]
            found[start:start + len(draws)] = self._search(draws)
        return found


def _sgns_step(vectors, n_in, n_pos, flat, rate, mult):
    """Loss and rate-weighted gradients of one step over its distinct rows.

    ``vectors`` holds the step's n_in input rows, then its output rows.
    Entry i sits at flat position ``flat[i]`` of the score block, and the
    first ``n_pos`` entries are pairs. ``mult`` counts the pairs that take
    an entry's loss. Returns the mult-weighted loss sum and the gradients
    of ``vectors``, row for row. sigmoid(x) = exp(x - logaddexp(0, x))
    cannot overflow.
    """
    inputs, outputs = vectors[:n_in], vectors[n_in:]
    signed = (inputs @ outputs.T).take(flat)
    signed[:n_pos] *= -1.0
    loss = np.logaddexp(0.0, signed)
    coeff = rate * np.exp(signed - loss)
    coeff[:n_pos] *= -1.0
    coeff = np.bincount(flat, coeff, n_in * len(outputs)).reshape(n_in, len(outputs))
    grad = np.empty_like(vectors)
    np.matmul(coeff, outputs, out=grad[:n_in])
    np.matmul(coeff.T, inputs, out=grad[n_in:])
    return float(np.dot(mult, loss)), grad


def _keep_probabilities(counts: np.ndarray, threshold: float) -> np.ndarray:
    """Word2vec-style keep probability per word id, from its count, clipped to 1."""
    freq = counts / counts.sum()
    with np.errstate(over="ignore"):  # a huge threshold overflows to inf, which keeps the word
        keep = np.sqrt(threshold / freq) + threshold / freq
    return np.minimum(keep, 1.0)


def _epoch_layouts(ids, lengths, config: EmbeddingConfig, keep: np.ndarray | None):
    """Yield, per epoch, the effective sentences as flat (ids, left, right, lengths).

    Takes the corpus as ``Vocabulary.encode`` maps it and drops its -1 ids
    (words below min_count). ``ids`` holds the kept tokens of every
    sentence that keeps at least two back to back (a one-word sentence has
    no pairs), ``left`` and ``right`` how many in-window context words each
    token has on either side, and ``lengths`` the sentence lengths. Each
    epoch draws the subsampling and window substreams once, in a fixed
    order, from substreams made afresh for every call, so a config always
    yields the same layouts and only one epoch's layout is held at a time.
    """
    tokens = ids[ids >= 0]
    sentence_of = np.repeat(np.arange(len(lengths)), lengths)[ids >= 0]
    win_stream = make_stream(config.seed, "window")
    sub_stream = make_stream(config.seed, "subsample") if keep is not None else None
    for _ in range(config.epochs):
        ids, sentence = tokens, sentence_of
        if sub_stream is not None:
            kept = _uniform(sub_stream, len(tokens)) < keep[tokens]
            ids, sentence = tokens[kept], sentence_of[kept]
        lengths = np.bincount(sentence)
        windows = (win_stream.random_raw(len(ids)) % config.window).astype(np.intp) + 1
        paired = lengths[sentence] > 1  # a one-word sentence has no pairs
        ids, windows, lengths = ids[paired], windows[paired], lengths[lengths > 1]
        pos = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        left = np.minimum(pos, windows)
        right = np.minimum(np.repeat(lengths, lengths) - 1 - pos, windows)
        yield ids, left, right, lengths


def _shared_negatives(sampler, stream, ids, left, right, k: int, vocab_size: int) -> np.ndarray:
    """(T, k) negative word ids for the epoch's T tokens, which all have a context.

    Row i belongs to token i, and all of its pairs share it. Slots are
    filled row-major from ``stream``; a draw equal to any of its center's
    in-window context words is redrawn (again row-major over the rejected
    slots) until none is left, except for a center whose context words
    cover the whole vocabulary. Every other center has a word left to
    draw, so the loop ends.
    """
    window = int(max(left.max(initial=0), right.max(initial=0)))

    def in_window(at, words):
        """Whether each word is an in-window context of the token at ``at``."""
        hit = np.zeros(np.broadcast(at, words).shape, dtype=bool)
        for offset in range(1, window + 1):
            hit |= (left[at] >= offset) & (ids.take(at - offset, mode="clip") == words)
            hit |= (right[at] >= offset) & (ids.take(at + offset, mode="clip") == words)
        return hit

    centers = np.arange(len(ids))
    covered = np.zeros(len(centers), dtype=bool)
    if vocab_size <= 2 * window:  # only then can the contexts cover the vocabulary
        covered = in_window(centers[:, None], np.arange(vocab_size)).all(axis=1)
    negatives = sampler.sample_n(stream, len(centers) * k).reshape(-1, k)
    redraw = np.flatnonzero(in_window(centers[:, None], negatives) & ~covered[:, None])
    flat = negatives.reshape(-1)
    while len(redraw):
        flat[redraw] = sampler.sample_n(stream, len(redraw))
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


SENTENCES_PER_STEP = 4  # consecutive paired sentences scored from one snapshot per step
STEP_BLOCK = 16  # steps _steps lays out at a time; bounds its arrays, not the result


def _steps(ids, left, right, lengths, negatives, lr, vocab_size: int):
    """Yield one epoch's steps as (rows, n_in, n_pos, flat, rate, mult).

    Takes the epoch's layout, its (T, k) shared negative word ids and the
    rates of its pairs in order; sentence i belongs to step
    i // SENTENCES_PER_STEP. ``rows`` are the step's distinct rows of the
    stacked matrix, its n_in input rows first, and the rest is what
    ``_sgns_step`` takes. Steps are laid out STEP_BLOCK at a time, so the
    arrays stay small whatever the corpus size; the block size does not
    change which sentences share a step.
    """
    k = negatives.shape[1]
    block_size = STEP_BLOCK * SENTENCES_PER_STEP
    # which of the 2V rows a block reads, and each one's rank among them
    seen, rank = np.zeros(2 * vocab_size, dtype=bool), np.empty(2 * vocab_size, dtype=np.intp)
    t0 = p0 = 0
    for first in range(0, len(lengths), block_size):
        block = lengths[first:first + block_size]
        t1 = t0 + int(block.sum())
        tokens = ids[t0:t1]
        owner, context = _pairs(left[t0:t1], right[t0:t1])
        n_pairs, n_tokens = len(owner), t1 - t0
        token_step = np.repeat(np.arange(len(block)) // SENTENCES_PER_STEP, block)
        center = np.concatenate((owner, np.repeat(np.arange(n_tokens), k)))  # per entry
        step = token_step[center]
        # the rows the block reads: its tokens' input rows, then its entries' output rows
        read = np.concatenate((tokens, tokens[context], negatives[t0:t1].ravel()))
        read[n_tokens:] += vocab_size
        seen[read] = True
        distinct = np.flatnonzero(seen)  # ascending, so the input rows (< V) come first
        seen[distinct] = False
        rank[distinct] = np.arange(len(distinct))
        # a cell is step * U + rank, so the cells in use are the (step, row) keys in order
        cells = np.concatenate((token_step, step)) * len(distinct) + rank[read]
        used = np.zeros((token_step[-1] + 1) * len(distinct), dtype=bool)
        used[cells] = True
        keys = np.flatnonzero(used)
        slot = np.empty(len(used), dtype=np.intp)  # each key's place among the keys
        slot[keys] = np.arange(len(keys))
        at = slot[cells]
        key_step, key_rank = np.divmod(keys, len(distinct))
        rows = distinct[key_rank]
        n_rows = np.bincount(key_step)
        n_in = np.bincount(key_step[rows < vocab_size], minlength=len(n_rows))
        row_starts = np.cumsum(n_rows) - n_rows
        flat = (at[center] - row_starts[step]) * (n_rows - n_in)[step]
        flat += at[n_tokens:] - (row_starts + n_in)[step]
        lr_block = lr[p0:p0 + n_pairs]
        rate = np.concatenate((lr_block, np.repeat(np.bincount(owner, lr_block, n_tokens), k)))
        mult = np.concatenate((np.ones(n_pairs), np.repeat(left[t0:t1] + right[t0:t1], k)))
        order = np.argsort(step, kind="stable")  # keeps each step's pairs first
        flat, rate, mult = flat[order], rate[order], mult[order]
        r0 = e0 = 0
        for r1, n, e1, n_pos in zip(
            np.cumsum(n_rows).tolist(), n_in.tolist(), np.cumsum(np.bincount(step)).tolist(),
            np.bincount(step[:n_pairs]).tolist(),
        ):
            yield rows[r0:r1], n, n_pos, flat[e0:e1], rate[e0:e1], mult[e0:e1]
            r0, e0 = r1, e1
        t0, p0 = t1, p0 + n_pairs


def _train_epoch(weights, ids, left, right, lengths, negatives, lr) -> float:
    """Take one epoch's ``_steps`` on ``weights`` in place; return the sum of its pair losses."""
    loss_sum = 0.0
    for rows, *step in _steps(ids, left, right, lengths, negatives, lr, len(weights) // 2):
        vectors = weights.take(rows, axis=0)
        loss, grad = _sgns_step(vectors, *step)
        vectors -= grad
        weights[rows] = vectors
        loss_sum += loss
    return loss_sum


def train_skipgram(
    corpus: Sequence[Sequence[str]], config: EmbeddingConfig
) -> EmbeddingModel:
    """Train a (non-finalized) skip-gram model over the pooled corpus.

    ``Vocabulary.encode`` maps the corpus to ids, the ids ``featurize``
    gives its contexts' tokens (``Vocabulary.encode_texts``), and each
    word's count is read off them once for the negatives and subsampling
    to draw by. A pair's loss is its positive term plus its center's
    negative term, and ``epoch_losses`` holds each epoch's mean per-pair
    loss, nan for an epoch that subsampling left without a pair. Raises
    ``ValueError`` for a corpus with no (center, context) pair in any
    epoch, and for a run that diverged: training starts at all-zero
    scores, whose loss is (1 + negatives) * ln 2, since the output vectors
    start at zero, and a last epoch with a pair whose mean loss is above
    that by more than DIVERGENCE_MARGIN (or nan) diverged.
    """
    vocab = build_vocabulary(corpus, config.min_count)
    encoded = vocab.encode(corpus)
    counts = np.bincount(encoded[0][encoded[0] >= 0])  # per id; the -1s are below min_count
    keep = _keep_probabilities(counts, config.subsample) if config.subsample > 0 else None
    layouts = _epoch_layouts(*encoded, config, keep)
    epoch_pairs = [int(left.sum() + right.sum()) for _, left, right, _ in layouts]
    if not any(epoch_pairs):
        raise ValueError(
            "no (center, context) pair to train on: no sentence has two words left after "
            f"embedding.min_count = {config.min_count} and embedding.subsample = "
            f"{config.subsample:g}"
        )

    vocab_size, dim, k = len(vocab), config.dim, config.negatives
    # input vectors are rows [0, V), output vectors rows [V, 2V) of one
    # matrix, so a step is one gather and one scatter
    weights = np.zeros((2 * vocab_size, dim))
    weights[:vocab_size] = (_uniform(make_stream(config.seed, "init"), (vocab_size, dim)) - 0.5) / dim
    sampler = UnigramSampler(counts, config.unigram_power)
    neg_stream = make_stream(config.seed, "negatives")
    lr_span = config.lr_initial - config.lr_final
    denom = max(sum(epoch_pairs) - 1, 1)
    losses = []
    pair_index = 0
    # a diverging run overflows to inf and nan; the loss check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for n_pairs, (ids, left, right, lengths) in zip(
            epoch_pairs, _epoch_layouts(*encoded, config, keep)
        ):
            negatives = _shared_negatives(sampler, neg_stream, ids, left, right, k, vocab_size)
            lr = config.lr_initial - lr_span * (np.arange(pair_index, pair_index + n_pairs) / denom)
            loss_sum = _train_epoch(weights, ids, left, right, lengths, negatives, lr)
            losses.append(loss_sum / n_pairs if n_pairs else math.nan)
            pair_index += n_pairs
    final = [loss for loss, n_pairs in zip(losses, epoch_pairs) if n_pairs][-1]
    bound = (1 + k) * math.log(2)  # the loss of all-zero scores, where training starts
    if not final <= bound * (1 + DIVERGENCE_MARGIN):  # a nan loss fails too
        raise ValueError(
            f"training diverged: final mean loss {final:.6g} is not at most "
            f"(1 + negatives) * ln 2 = {bound:.6g}, the loss training starts from, "
            f"plus {DIVERGENCE_MARGIN:.0%} (try a lower embedding.lr_initial)"
        )

    return EmbeddingModel(
        vocab=vocab,
        input_vectors=weights[:vocab_size],
        output_vectors=weights[vocab_size:],
        epoch_losses=tuple(losses),
    )


def finalize(model: EmbeddingModel) -> EmbeddingModel:
    """Project every word vector onto the unit hypersphere.

    A vector with (near-)zero norm is replaced by the first basis vector
    and the word is recorded in ``zero_replaced``; output vectors are
    dropped. The input model must not already be finalized, and a
    non-finite vector (training diverged) raises ``ValueError``.
    """
    if model.finalized:
        raise ValueError("model is already finalized")
    vectors = np.array(model.input_vectors, dtype=np.float64, copy=True)
    diverged = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if diverged.size:
        raise ValueError(
            f"training diverged: the vector of {model.vocab.words[diverged[0]]!r} is not finite "
            "(try a lower embedding.lr_initial)"
        )
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
    with open_atomic(path) as f:
        f.write(f"{len(model.vocab)} {model.dim}\n")
        for i, word in enumerate(model.vocab.words):
            floats = " ".join(repr(float(x)) for x in model.input_vectors[i])
            f.write(f"{word} {floats}\n")


def load_embedding(path) -> EmbeddingModel:
    """Load a finalized model written by save_embedding.

    Validates the header counts, per-line arity, that every word is one
    ``tokenize`` can produce (lowercase, no edge punctuation, not all
    digits), that every value is a finite number and that every vector
    has unit norm (within UNIT_NORM_TOL), and refuses a word that occurs
    twice. The words keep the file's order, so the vocabulary equals the
    one the saved model was trained with.
    """
    with open_text(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: header must be '<vocab_size> <dim>'")
        try:
            expected_v, dim = int(header[0]), int(header[1])
            if min(expected_v, dim) < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: header must be two integers, each >= 1") from None
        words: list[str] = []
        rows: list[np.ndarray] = []
        line_nos: list[int] = []
        seen: set[str] = set()
        for line_no, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}: line {line_no}: expected {dim + 1} fields, got {len(parts)}"
                )
            word = parts[0]
            if word != NUM_TOKEN and tokenize(word) != [word]:  # no context could ever use it
                raise ValueError(f"{path}: line {line_no}: {word!r} is not a token tokenize can produce")
            if word in seen:
                raise ValueError(f"{path}: line {line_no}: duplicate word {word!r}")
            seen.add(word)
            words.append(word)
            try:
                row = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: non-numeric value") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: line {line_no}: non-finite value")
            rows.append(row)
            line_nos.append(line_no)
    if len(words) != expected_v:
        raise ValueError(f"{path}: header claims {expected_v} words, found {len(words)}")
    vectors = np.vstack(rows)
    with np.errstate(over="ignore"):  # a huge value's square: an inf norm, refused below
        norms = np.linalg.norm(vectors, axis=1)
    off_unit = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if len(off_unit):
        first = off_unit[0]
        raise ValueError(
            f"{path}: line {line_nos[first]}: vector norm {norms[first]:.9g} is not 1 "
            f"(tolerance {UNIT_NORM_TOL:g})"
        )
    return EmbeddingModel(vocab=Vocabulary(words=tuple(words)), input_vectors=vectors)

