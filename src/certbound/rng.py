"""Reproducible, splittable random number streams.

All Monte-Carlo code in this package draws its randomness through
`stream_rng`, which derives an independent counter-based (Philox) stream
from a 64-bit root seed and an arbitrary tuple of stream identifiers.
A stream's draws therefore depend only on the seed and its identifiers,
not on which other streams were drawn before it.  Library calls that draw
take the `np.random.Generator` itself, as a parameter named `rng`;
`stream_rng(seed)` is the root stream of a seed.
"""

from __future__ import annotations

import numpy as np


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Generator for the sub-stream `stream` of root `seed`."""
    key = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))

