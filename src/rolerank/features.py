"""Context feature vectors: count-weighted bag-of-words pooling.

``featurize`` maps n contexts, each a list of sentences, to one (n, d)
matrix. A context's sentences are tokenized, the word vectors of every
in-vocabulary token occurrence are summed (repeats count each time), and
the sum is L2-normalized back onto the unit hypersphere. Out-of-vocabulary
tokens are skipped. A context whose sum has norm <= 1e-12 (no known token,
or the vanishingly rare exact cancellation) keeps an all-zero row and a
False mask entry, so callers choose their own fallback.

Tokens reach their ids through the vocabulary's piece memo
(``Vocabulary.encode_texts``): each whitespace piece is tokenized once
and its id kept, up to ``embedding.PIECE_CACHE`` pieces, for later calls.
The memo gives each piece the id ``tokenize`` and the vocabulary would,
in the same order, so a row does not depend on what it held before.
"""

from __future__ import annotations

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

    Each block of FEATURIZE_BLOCK whole contexts is mapped to ids by
    ``Vocabulary.encode_texts``, whose ids >= 0 are those ``encode`` gives
    the contexts' tokens, and summed by one ``np.bincount`` over (row,
    column) keys, which adds each row's tokens in order from 0.0, as
    ``context_vector`` does.
    ``np.add.reduceat`` would not: it does not add along axis 0 in order.
    A row's norm is the square root of its squares summed in column
    order by ``np.add.accumulate``: elementwise IEEE operations and one
    sequential sum, so the rows have the same bits on every BLAS kernel.
    A BLAS ddot (``vecdot``, ``np.linalg.norm``) sums in an order that
    differs from kernel to kernel.
    """
    if not model.finalized:
        raise ValueError("featurize requires a finalized model")
    n, d = len(contexts), model.dim
    X = np.empty((n, d))
    columns = np.arange(d)
    for start in range(0, n, FEATURIZE_BLOCK):
        block = contexts[start:start + FEATURIZE_BLOCK]
        # no token spans whitespace, so a context tokenizes as one string
        ids, lengths = model.vocab.encode_texts(" ".join(sentences) for sentences in block)
        rows = np.repeat(np.arange(len(block)), lengths)[ids >= 0]
        keys = (rows[:, None] * d + columns).ravel()
        X[start:start + len(block)] = np.bincount(
            keys, weights=model.input_vectors[ids[ids >= 0]].ravel(), minlength=len(block) * d
        ).reshape(len(block), d)
    squares = np.square(X)
    norms = np.sqrt(np.add.accumulate(squares, axis=1, out=squares)[:, -1])
    nonzero = norms > ZERO_NORM_EPS
    X[~nonzero] = 0.0
    np.divide(X, norms[:, None], out=X, where=nonzero[:, None])
    return X, nonzero
