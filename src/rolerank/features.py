"""Context feature vectors: count-weighted bag-of-words pooling.

``featurize`` maps n contexts, each a list of sentences, to one (n, d)
matrix. A context's sentences are tokenized, the word vectors of every
in-vocabulary token occurrence are summed (repeats count each time), and
the sum is L2-normalized back onto the unit hypersphere. Out-of-vocabulary
tokens are skipped. A context whose sum has norm <= 1e-12 (no known token,
or the vanishingly rare exact cancellation) keeps an all-zero row and a
False mask entry, so callers choose their own fallback.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

import numpy as np

from .corpus import tokenize
from .embedding import ZERO_NORM_EPS, EmbeddingModel

# Contexts summed per bincount. A block's (tokens, d) gather and keys are
# featurize's temporaries: one bincount over 1,200 contexts raised the C7
# pipeline's peak RSS by ~10%, blocks of 64 left it flat. A context is never
# split across two blocks, which would reorder its additions.
FEATURIZE_BLOCK = 64


def context_vector(sentences: Sequence[str], model: EmbeddingModel) -> np.ndarray:
    """The unnormalized sum of one context's in-vocabulary token vectors.

    One gather and one axis-0 sum, which numpy adds in token order from
    0.0. This is the per-context reference ``featurize``'s rows are tested
    against.
    """
    index = model.vocab.index
    known = [i for s in sentences for i in map(index.get, tokenize(s)) if i is not None]
    return model.input_vectors[known].sum(axis=0) if known else np.zeros(model.dim)


def featurize(
    contexts: Sequence[Sequence[str]], model: EmbeddingModel
) -> tuple[np.ndarray, np.ndarray]:
    """Return (X, nonzero): one unit-norm row per context, and the (n,)
    bool mask of rows whose sum had norm > 1e-12 (the others are zero).

    Each block of FEATURIZE_BLOCK whole contexts is summed by one
    ``np.bincount`` over (row, column) keys, which adds each row's tokens
    in order from 0.0, as ``context_vector`` does. ``np.add.reduceat``
    would not: it does not add along axis 0 in order. The norms are
    ``sqrt(vecdot)``, the same ddot as a per-row ``np.linalg.norm``; the
    vectorised ``axis=1`` norm can differ in the last bit.
    """
    if not model.finalized:
        raise ValueError("featurize requires a finalized model")
    n, d = len(contexts), model.dim
    get, vectors = model.vocab.index.get, model.input_vectors
    X = np.empty((n, d))
    columns = np.arange(d)
    for start in range(0, n, FEATURIZE_BLOCK):
        block = contexts[start:start + FEATURIZE_BLOCK]
        ids, lengths = [], []  # every token's id (-1 if unknown); tokens per context
        for sentences in block:
            tokens = tokenize(" ".join(sentences))  # no token spans whitespace
            ids += map(get, tokens, repeat(-1))
            lengths.append(len(tokens))
        ids = np.array(ids, dtype=np.intp)
        known = ids >= 0
        rows = np.repeat(np.arange(len(block)), lengths)[known]
        keys = (rows[:, None] * d + columns).ravel()
        X[start:start + len(block)] = np.bincount(
            keys, weights=vectors[ids[known]].ravel(), minlength=len(block) * d
        ).reshape(len(block), d)
    norms = np.sqrt(np.vecdot(X, X))
    nonzero = norms > ZERO_NORM_EPS
    X[~nonzero] = 0.0
    np.divide(X, norms[:, None], out=X, where=nonzero[:, None])
    return X, nonzero
