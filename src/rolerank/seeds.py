"""Deterministic seed derivation for the pipeline stages.

Every random stream in the project is derived from one master seed plus a
short tag, so reruns with the same seed are bit-reproducible and the
stages (embedding, forests, splits) stay decorrelated. A stream is a
PCG64 bit generator, and every draw is read from its raw 64-bit output,
which numpy keeps fixed across versions; no ``Generator`` is made, since
its algorithms carry no such promise (NEP 19).
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


def make_stream(seed: int, tag: str) -> np.random.PCG64:
    """The PCG64 stream seeded from (``seed``, ``tag``); read it by ``random_raw``."""
    return np.random.PCG64(derive_seed(seed, tag))
