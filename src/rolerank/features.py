"""Context feature vectors: count-weighted bag-of-words pooling.

A triple's context sentences are tokenized, the word vectors of every
in-vocabulary token occurrence are summed (repeats count each time), and
the sum is L2-normalized back onto the unit hypersphere. Out-of-vocabulary
tokens are skipped; a context with no known token yields a flagged zero
vector so scoring stays total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import tokenize
from .embedding import ZERO_NORM_EPS, EmbeddingModel


@dataclass(frozen=True)
class ContextFeatureVector:
    values: np.ndarray
    oov: bool  # every token was out of vocabulary

    @property
    def is_zero(self) -> bool:
        return not np.any(self.values)


def l2_normalize(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Return (v / ||v||, False), or (zero vector, True) for degenerate input.

    Inputs with norm <= 1e-12 are signalled rather than raised so callers
    can decide their own fallback.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_NORM_EPS:
        return np.zeros_like(v), True
    return v / norm, False


def context_vector(sentences: Sequence[str], model: EmbeddingModel) -> ContextFeatureVector:
    """Pool a context's word vectors into a unit-length feature vector.

    Word order is ignored but multiplicity matters: each occurrence adds
    its vector to the sum again. ``oov`` is set when no token was in the
    vocabulary; the (vanishingly rare) exact cancellation of in-vocabulary
    vectors also degenerates to the zero vector, with ``oov`` left False.
    """
    if not model.finalized:
        raise ValueError("context_vector requires a finalized model")
    index = model.vocab.index
    known = [i for s in sentences for i in map(index.get, tokenize(s)) if i is not None]
    # one gather and one axis-0 sum: for rows of two or more components
    # numpy adds them in order, so the total equals a token-by-token
    # running sum bit for bit
    total = model.input_vectors[known].sum(axis=0) if known else np.zeros(model.dim)
    values, _ = l2_normalize(total)
    return ContextFeatureVector(values=values, oov=not known)
