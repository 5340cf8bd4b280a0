"""Synthetic datasets shared across the test modules.

The labeled generator builds role-tagged triples whose context sentences
mix a shared background vocabulary with role-specific signal words at a
density that grades with the relevance label (highly relevant richest,
irrelevant none). That makes relevance linearly recoverable from pooled
word vectors while keeping the grades separable by score.

The helpers below the generators are the tests' references over the
package's kernels: ``pair_loss_and_gradients`` is the one-pair view of the
SGNS step kernel that the gradient checks difference, ``best_split`` the
one-node view of the batched split search, ``classifier_to_json`` a model
file's text, ``preorder_json`` that text in the preorder layout the golden
digests were recorded on, ``predict_reference`` the forest walk over a
model's own node arrays and ``unigram_probabilities`` the distribution
negatives are drawn from. ``uniform_reference`` and ``window_reference``
are the draws of SGNS, and ``bootstrap_reference``,
``candidate_set_reference`` and ``split_order_reference`` those of
forests and splits, in plain Python over ``PCG64.random_raw``.
"""

from __future__ import annotations

import json

import numpy as np

from rolerank.corpus import ContextualTriple, RelevanceLabel
from rolerank.embedding import EmbeddingModel, Vocabulary, _sgns_step
from rolerank.forest import RoleClassifier, _json_parts, _sort_codes, _split_batch
from rolerank.seeds import derive_seed

# Unicode whitespace that str.split() splits on, mixed into generated text
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2003\u2028\u202f\u3000"

LABEL_CYCLE = (
    RelevanceLabel.HIGHLY_RELEVANT,
    RelevanceLabel.RELEVANT,
    RelevanceLabel.HIGHLY_RELEVANT,
    RelevanceLabel.RELEVANT,
    RelevanceLabel.NEUTRAL,
    RelevanceLabel.IRRELEVANT,
    RelevanceLabel.IRRELEVANT,
    RelevanceLabel.NEUTRAL,
    RelevanceLabel.HIGHLY_RELEVANT,
    RelevanceLabel.IRRELEVANT,
)

SIGNAL_DENSITY = {
    RelevanceLabel.HIGHLY_RELEVANT: 5,
    RelevanceLabel.RELEVANT: 2,
    RelevanceLabel.NEUTRAL: 1,
    RelevanceLabel.IRRELEVANT: 0,
}

SENTENCE_LENGTH = 10


def background_words(n: int = 40) -> list[str]:
    return [f"filler{i}" for i in range(n)]


def signal_words(role: str, n: int = 10) -> list[str]:
    return [f"{role}sig{i}" for i in range(n)]


def make_sentence(rng: np.random.Generator, role: str, density: int) -> str:
    words = list(rng.choice(signal_words(role), size=density)) + list(
        rng.choice(background_words(), size=SENTENCE_LENGTH - density)
    )
    rng.shuffle(words)
    return " ".join(str(w) for w in words) + "."

def make_labeled_triples(
    roles=("affiliate", "trustee", "issuer"),
    n_per_role: int = 400,
    seed: int = 2024,
    sentences_per_triple: int = 2,
) -> list[ContextualTriple]:
    rng = np.random.default_rng(seed)
    triples = []
    for role in roles:
        for i in range(n_per_role):
            label = LABEL_CYCLE[i % len(LABEL_CYCLE)]
            density = SIGNAL_DENSITY[label]
            sentences = tuple(
                make_sentence(rng, role, density) for _ in range(sentences_per_triple)
            )
            triples.append(
                ContextualTriple(
                    id=f"{role}-{i:04d}",
                    head=f"HEAD CORP {i % 7}",
                    role=role,
                    tail=f"TAIL CORP {i % 5}",
                    sentences=sentences,
                    label=label,
                )
            )
    return triples


def triples_to_jsonl(triples, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in triples:
            obj = {
                "id": t.id,
                "head": t.head,
                "role": t.role,
                "tail": t.tail,
                "sentences": list(t.sentences),
            }
            if t.label is not None:
                obj["label"] = t.label.value
            f.write(json.dumps(obj) + "\n")


def clique_corpus(
    cliques=(("a", "b", "c"), ("x", "y", "z")),
    sentences_per_clique: int = 500,
    seed: int = 7,
) -> list[list[str]]:
    """Sentences that co-occur only within each clique."""
    rng = np.random.default_rng(seed)
    corpus = []
    for clique in cliques:
        for _ in range(sentences_per_clique):
            corpus.append([str(w) for w in rng.permutation(clique)])
    return corpus


def unit_vector_model(words: list[str], dim: int = 8, seed: int = 0) -> EmbeddingModel:
    """Hand-built finalized model with random unit vectors (no training)."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(len(words), dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return EmbeddingModel(vocab=Vocabulary(words=tuple(words)), input_vectors=vectors)


def pair_loss_and_gradients(center, context, negatives):
    """One pair's negative-sampling loss and gradients, as one step of the
    trainer's kernel: one input row against the context and the k
    negatives, every entry at rate 1. Returns (loss, grad_center,
    grad_context, grad_negatives), the last (k, d)."""
    rows = np.vstack([center, context, negatives]).astype(np.float64)
    ones = np.ones(len(rows) - 1)
    loss, grad = _sgns_step(rows, 1, 1, np.arange(len(ones)), ones, ones)
    return loss, grad[0], grad[1], grad[2:]


def gini_decrease(n, pos, n_left, pos_left) -> float:
    """The Gini decrease of a cut that sends ``n_left`` of a node's ``n``
    draws, ``pos_left`` of its ``pos`` positives, left: the split kernel's
    exact fraction numer / (n^2 * denom) over Python integers."""
    n, pos, a, e = (int(x) for x in (n, pos, n_left, pos_left))
    c, f = n - a, pos - e
    denom = a * c
    t = (e**2 + (a - e) ** 2) * c + (f**2 + (c - f) ** 2) * a
    return (n * t - (pos**2 + (n - pos) ** 2) * denom) / (n * n * denom)


def best_split(X, y, candidate_features, min_samples_leaf=1):
    """(feature, threshold, Gini decrease) of the split kernel's search of
    one node that holds each row of X once, or None when no cut decreases
    the impurity. The decrease is worked out from the draws the threshold
    sends left, which are the cut's unless its midpoint rounds onto the
    upper value."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    n = len(y)
    feature, threshold, n_left, pos_left, _ = _split_batch(
        X, *_sort_codes(X, y), np.arange(n), np.ones(n, dtype=np.int64), np.array([0]), np.array([n]),
        np.asarray(candidate_features, dtype=np.int64)[None], min_samples_leaf)
    if feature[0] < 0:
        return None
    return int(feature[0]), float(threshold[0]), gini_decrease(n, y.sum(), n_left[0], pos_left[0])


def classifier_to_json(classifier: RoleClassifier) -> str:
    """The text ``save_classifier`` writes, without its final newline."""
    return "".join(_json_parts(classifier))


def preorder_json(classifier: RoleClassifier) -> str:
    """The model text of the layout model files had before they took the
    fit's node order: each tree's nodes depth first, left child before
    right, as arrays ``roots`` (each tree's first node), ``feature``,
    ``threshold``, ``left``, ``right`` and ``value``. The golden digests
    of tests/test_forest.py were recorded over this text."""
    c = classifier
    order = []  # order[place] is the node written there
    for root in range(c.config.n_trees):
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            if c.left[node] >= 0:
                stack += [c.left[node] + 1, c.left[node]]
    order = np.array(order, dtype=np.int64)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    kids = c.left[order]
    internal = kids >= 0
    arrays = {
        "roots": place[:c.config.n_trees], "feature": c.feature[order], "threshold": c.threshold[order],
        "left": np.where(internal, place[kids.clip(0)], -1),
        "right": np.where(internal, place[(kids + 1).clip(0)], -1), "value": c.value[order],
    }
    parts = (f',"{name}":' + json.dumps(values.tolist(), separators=(",", ":"))
             for name, values in arrays.items())
    return next(_json_parts(c)) + "".join(parts) + "}"


def predict_reference(classifier: RoleClassifier, x: np.ndarray) -> float | np.ndarray:
    """``predict_proba`` over the model's own node arrays: every (tree, row)
    pair starts at its tree's root, node t for tree t, and all pairs still
    at an internal node step down one level together, to ``left`` where
    ``x <= threshold`` and to ``left + 1`` elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    c, d = classifier, classifier.n_features
    flat, n, trees = x.ravel(), x.size // d, c.config.n_trees
    node = np.repeat(np.arange(trees), n)  # pair t * n + i is (tree t, row i)
    offset = np.tile(np.arange(0, n * d, d), trees)  # row i's start in flat
    live = np.flatnonzero(c.left[node] >= 0)
    while live.size:
        at = node[live]
        at = np.where(flat[offset[live] + c.feature[at]] <= c.threshold[at], c.left[at], c.left[at] + 1)
        node[live] = at
        live = live[c.left[at] >= 0]
    scores = np.add.accumulate(c.value[node].reshape(trees, n), axis=0)[-1] / trees
    return float(scores[0]) if x.ndim == 1 else scores


def unigram_probabilities(counts, power: float = 0.75) -> np.ndarray:
    """Each word id's share of counts^power, the distribution negatives are drawn from."""
    weights = np.asarray(counts, dtype=np.float64) ** power
    return weights / weights.sum()


def uniform_reference(seed: int, tag: str, n: int) -> list[float]:
    """The first n doubles in [0, 1) of the stream seeded from (seed, tag):
    each is one raw 64-bit draw's top 53 bits times 2**-53."""
    stream = np.random.PCG64(derive_seed(seed, tag))
    return [(raw >> 11) * 2.0**-53 for raw in stream.random_raw(n).tolist()]


def window_reference(seed: int, window: int, n: int) -> list[int]:
    """The first n effective windows of an SGNS run seeded ``seed``: each is
    1 + one raw 64-bit draw of its ``window`` stream modulo ``window``."""
    stream = np.random.PCG64(derive_seed(seed, "window"))
    return [1 + raw % window for raw in stream.random_raw(n).tolist()]


def bootstrap_reference(seed: int, tree: int, n: int) -> list[int]:
    """The n rows tree ``tree`` of a forest seeded ``seed`` draws: each is
    one raw 64-bit draw of the tree's PCG64 stream, modulo n."""
    stream = np.random.PCG64(derive_seed(seed, f"tree{tree}"))
    return [raw % n for raw in stream.random_raw(n).tolist()]


def candidate_set_reference(stream: np.random.PCG64, d: int, m: int) -> list[int]:
    """The next candidate set of a tree's PCG64 stream, sorted: d raw keys,
    one a column, and the m columns whose keys are smallest, once each
    key's low (d - 1).bit_length() bits are dropped, ties going to the
    lower column."""
    bits = (d - 1).bit_length()
    keys = stream.random_raw(d).tolist()
    return sorted(sorted(range(d), key=lambda column: (keys[column] >> bits, column))[:m])


def split_order_reference(seed: int, role: str, target: int | None, size: int) -> list[int]:
    """The order ``split_train_test`` takes a stratum's ``size`` members in,
    sorted by triple id: by one raw draw each of the stratum's PCG64
    stream, ties in id order. The first ceil(fraction * size) train."""
    keys = np.random.PCG64(derive_seed(seed, f"{role}|{target}")).random_raw(size).tolist()
    return sorted(range(size), key=lambda i: (keys[i], i))
