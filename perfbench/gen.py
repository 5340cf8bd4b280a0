"""Seeded input generator for the benchmark workloads.

Shaped like ``tests/synth.py``: every role has ten signal words, all roles
share a 40-word background vocabulary, and a sentence mixes signal words
at a density that grades with the relevance label. Three sets are built
from it:

* the C7 labeled set (perfectly separable, so its forests stay shallow);
* a label-flipped copy of it, whose noise grows deep trees;
* a mixed score stream: about 85% known roles, 10% unknown roles (the
  exact 0.0 path) and 5% all-out-of-vocabulary contexts (the 0.5
  fallback), every triple with a graded label.

Only the standard library is used, and every set draws from its own
``random.Random`` keyed by (seed, set name), so one seed always yields the
same bytes and the generator does not depend on the code under test.
"""

from __future__ import annotations

import json
import random

HIGHLY_RELEVANT = "HIGHLY_RELEVANT"
RELEVANT = "RELEVANT"
NEUTRAL = "NEUTRAL"
IRRELEVANT = "IRRELEVANT"

ROLES = ("affiliate", "trustee", "issuer")
UNKNOWN_ROLES = ("guarantor", "underwriter")

LABEL_CYCLE = (
    HIGHLY_RELEVANT, RELEVANT, HIGHLY_RELEVANT, RELEVANT, NEUTRAL,
    IRRELEVANT, IRRELEVANT, NEUTRAL, HIGHLY_RELEVANT, IRRELEVANT,
)
SIGNAL_DENSITY = {HIGHLY_RELEVANT: 5, RELEVANT: 2, NEUTRAL: 1, IRRELEVANT: 0}
FLIPPED = {HIGHLY_RELEVANT: IRRELEVANT, RELEVANT: IRRELEVANT, IRRELEVANT: RELEVANT}
SENTENCE_LENGTH = 10
SENTENCES_PER_TRIPLE = 2
UNKNOWN_SHARE = 0.10
OOV_SHARE = 0.05
BACKGROUND = tuple(f"filler{i}" for i in range(40))
OOV_WORDS = tuple(f"unseen{i}" for i in range(20))

# what a stream triple must score, by kind
KNOWN, UNKNOWN_ROLE, ALL_OOV = "known", "unknown_role", "all_oov"


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _sentence(rng: random.Random, role: str, density: int) -> str:
    signal = [f"{role}sig{i}" for i in range(10)]
    words = rng.choices(signal, k=density) + rng.choices(BACKGROUND, k=SENTENCE_LENGTH - density)
    rng.shuffle(words)
    return " ".join(words) + "."


def _record(id_: str, role: str, sentences: list[str], label: str, i: int) -> dict:
    return {
        "id": id_,
        "head": f"HEAD CORP {i % 7}",
        "role": role,
        "tail": f"TAIL CORP {i % 5}",
        "sentences": sentences,
        "label": label,
    }


def labeled(seed: int, n_per_role: int) -> list[dict]:
    """The C7 set: ``n_per_role`` triples per role, labels cycling as in C7."""
    rng = _rng(seed, "labeled")
    records = []
    for role in ROLES:
        for i in range(n_per_role):
            label = LABEL_CYCLE[i % len(LABEL_CYCLE)]
            text = [_sentence(rng, role, SIGNAL_DENSITY[label]) for _ in range(SENTENCES_PER_TRIPLE)]
            records.append(_record(f"{role}-{i:05d}", role, text, label, i))
    return records


def noisy(seed: int, n_per_role: int, flip_rate: float) -> list[dict]:
    """A C7-shaped set whose binarizable labels flip with ``flip_rate``."""
    rng = _rng(seed, "flip")
    records = labeled(seed, n_per_role)
    for record in records:
        if record["label"] in FLIPPED and rng.random() < flip_rate:
            record["label"] = FLIPPED[record["label"]]
    return records


def stream(seed: int, n: int) -> tuple[list[dict], dict[str, str]]:
    """The mixed score stream and the kind (known / unknown role / all-OOV) of each id."""
    rng = _rng(seed, "stream")
    records, kinds = [], {}
    for i in range(n):
        draw = rng.random()
        label = rng.choice(LABEL_CYCLE)
        density = SIGNAL_DENSITY[label]
        if draw < UNKNOWN_SHARE:
            kind, role = UNKNOWN_ROLE, rng.choice(UNKNOWN_ROLES)
            text = [_sentence(rng, role, density) for _ in range(SENTENCES_PER_TRIPLE)]
        elif draw < UNKNOWN_SHARE + OOV_SHARE:
            kind, role = ALL_OOV, rng.choice(ROLES)
            text = [
                " ".join(rng.choices(OOV_WORDS, k=SENTENCE_LENGTH)) + "."
                for _ in range(SENTENCES_PER_TRIPLE)
            ]
        else:
            kind, role = KNOWN, rng.choice(ROLES)
            text = [_sentence(rng, role, density) for _ in range(SENTENCES_PER_TRIPLE)]
        id_ = f"q{i:06d}"
        records.append(_record(id_, role, text, label, i))
        kinds[id_] = kind
    return records, kinds


def to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_jsonl(records))
