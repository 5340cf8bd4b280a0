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

from typing import Sequence

import numpy as np

from .corpus import tokenize
from .embedding import ZERO_NORM_EPS, EmbeddingModel


def context_vector(sentences: Sequence[str], model: EmbeddingModel) -> np.ndarray:
    """The unnormalized sum of one context's in-vocabulary token vectors.

    One gather and one axis-0 sum: for two or more rows numpy adds them in
    order, so the total equals a token-by-token running sum bit for bit.
    ``featurize`` calls this once per context, which is also the span the
    benchmark's tracer times as ``features.context_vector``.
    """
    index = model.vocab.index
    known = [i for s in sentences for i in map(index.get, tokenize(s)) if i is not None]
    return model.input_vectors[known].sum(axis=0) if known else np.zeros(model.dim)


def featurize(
    contexts: Sequence[Sequence[str]], model: EmbeddingModel
) -> tuple[np.ndarray, np.ndarray]:
    """Return (X, nonzero): one unit-norm row per context, and the (n,)
    bool mask of rows whose sum had norm > 1e-12 (the others are zero).

    The norm is taken row by row with ``np.linalg.norm``: the vectorised
    ``axis=1`` norm can differ in the last bit.
    """
    if not model.finalized:
        raise ValueError("featurize requires a finalized model")
    X = np.zeros((len(contexts), model.dim))
    nonzero = np.zeros(len(contexts), dtype=bool)
    for i, sentences in enumerate(contexts):
        total = context_vector(sentences, model)
        norm = float(np.linalg.norm(total))
        if norm > ZERO_NORM_EPS:
            X[i] = total / norm
            nonzero[i] = True
    return X, nonzero
