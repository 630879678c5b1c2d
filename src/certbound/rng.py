"""Reproducible, splittable random number streams.

All Monte-Carlo code in this package draws its randomness through
`stream_rng`, which derives an independent counter-based (Philox) stream
from a 64-bit root seed and an arbitrary tuple of stream identifiers.
Workers therefore produce identical results regardless of scheduling.
"""

from __future__ import annotations

import numpy as np


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Generator for the sub-stream `stream` of root `seed`."""
    key = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))


def as_rng(seed_or_rng) -> np.random.Generator:
    """Pass a Generator through; turn an integer seed into the root stream of that seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream_rng(int(seed_or_rng))
