"""Synthetic datasets shared across the test modules.

The labeled generator builds role-tagged triples whose context sentences
mix a shared background vocabulary with role-specific signal words at a
density that grades with the relevance label (highly relevant richest,
irrelevant none). That makes relevance linearly recoverable from pooled
word vectors while keeping the grades separable by score.

``pair_loss_and_gradients`` is the one-pair view of the SGNS step kernel
that the gradient checks difference.
"""

from __future__ import annotations

import json

import numpy as np

from rolerank.corpus import ContextualTriple, RelevanceLabel, parse_triples
from rolerank.embedding import EmbeddingModel, Vocabulary, _sgns_step

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
    vocab = Vocabulary(
        words=tuple(words),
        counts={w: 1 for w in words},
        index={w: i for i, w in enumerate(words)},
    )
    return EmbeddingModel(vocab=vocab, input_vectors=vectors)


def parse_jsonl_lines(lines: list[str]):
    return parse_triples(lines)


def pair_loss_and_gradients(center, context, negatives):
    """One pair's negative-sampling loss and gradients, as one step of the
    trainer's kernel: one input row against the context and the k
    negatives, every entry at rate 1. Returns (loss, grad_center,
    grad_context, grad_negatives), the last (k, d)."""
    rows = np.vstack([center, context, negatives]).astype(np.float64)
    ones = np.ones(len(rows) - 1)
    loss, grad = _sgns_step(rows, 1, 1, np.arange(len(ones)), ones, ones)
    return loss, grad[0], grad[1], grad[2:]
