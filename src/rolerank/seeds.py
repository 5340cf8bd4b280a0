"""Deterministic seed derivation and the one random primitive.

Every random draw in the project is derived from one master seed plus a
short tag, so reruns with the same seed are bit-reproducible and the
stages (embedding, forests, splits) stay decorrelated. No stage keeps a
stream: a draw is ``mix(key, counter)``, a hash of where it lands (the
counter-based idea of Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3", SC 2011), with a key derived from the seed and a tag. It is
uint64 arithmetic, so every draw is the same integer on every numpy
version and CPU.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, tag: str) -> int:
    """Map (master seed, tag) to a stable 64-bit seed.

    Uses blake2b so the derivation is identical across platforms and runs,
    unlike Python's salted ``hash()``.
    """
    digest = hashlib.blake2b(f"{master}:{tag}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def mix(key, counter):
    """The SplitMix64 finalizer of ``key + counter * 0x9E3779B97F4A7C15``
    (Steele, Lea & Flood, OOPSLA 2014) over uint64 arrays, which wrap mod
    2**64 without a warning; for counter >= 1 it is output ``counter`` of
    SplitMix64 seeded ``key``. It works in place, so its peak is the
    result and one temporary."""
    z = counter * 0x9E3779B97F4A7C15 + key
    for shift, factor in (30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB):
        z ^= z >> shift
        z *= factor
    return np.bitwise_xor(z, z >> 31, out=z)
