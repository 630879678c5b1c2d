"""Reproducible, splittable random number streams.

All Monte-Carlo code in this package draws its randomness through
`stream_rng`, which derives an independent counter-based (Philox) stream
from a 64-bit root seed in [0, 2^64) and an arbitrary tuple of stream
identifiers.  A stream's draws therefore depend only on the seed and its
identifiers, not on which other streams were drawn before it.  Library calls
that draw take the `np.random.Generator` itself, as a parameter named `rng`;
`stream_rng(seed)` is the root stream of a seed.  A seed that is not an
integer (a float, a string, a bool) is refused, not truncated.

`stream_rngs(seed, ids)` makes the streams `stream_rng(seed, i)` of a batch of
ids.  It runs numpy's SeedSequence hash (O'Neill's seed_seq mix, as numpy
1.19 and later run it) as the uint32-array steps `_hash` and `_mix`: on the
seed's pool once per seed, then on every key of the batch in one pass.
Neither function imports `numpy.random` before its first call.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .errors import InvalidParameterError


def _check_seed(seed: int) -> int:
    try:  # operator.index takes Python and numpy integers, and refuses floats, strings and numpy bools
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or isinstance(seed, bool):
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= value < 2**64:  # refused, not masked: reports and manifests echo the seed as given
        raise InvalidParameterError(f"seed must be in [0, 2^64), got {value}")
    return value


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Generator for the sub-stream `stream` of root `seed`."""
    key = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))


def stream_rngs(seed: int, ids: range):
    """stream_rng(seed, i) for each i of `ids` (each in [0, 2^32)), made one at a time as they are drawn.

    The keys are hashed up front, so a bad seed raises here, not at the first draw.
    """
    if len(ids) and not 0 <= min(ids) <= max(ids) < 2**32:
        raise InvalidParameterError("batched stream ids must be in [0, 2^32)")
    holder = _philox_key_type()
    return (np.random.Generator(np.random.Philox(holder(key))) for key in _philox_keys(_check_seed(seed), ids))


# A SeedSequence with a one-word spawn key fills its pool in 20 hash steps (constants A: 4 for the
# seed words, 12 for the cross-mix, 4 for the id word) and draws the 4 words of a Philox key from it
# (constants B); hash step i xors with C[i] = init * mult^i mod 2^32 and multiplies by C[i + 1].
_HASH_A = np.cumprod(np.array([0x43B0D7E5] + [0x931E8875] * 20, np.uint32), dtype=np.uint32)
_HASH_B = np.cumprod(np.array([0x8B51F9DD] + [0x58F38DED] * 4, np.uint32), dtype=np.uint32)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Hash steps along value's last axis: entry j xors with const[j], multiplies by const[j + 1], xor-shifts.

    Every step here runs on uint32 arrays, never numpy scalars: array products wrap silently, scalar ones warn.
    """
    value = (value ^ const[:-1]) * const[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def _philox_keys(seed: int, ids: range) -> np.ndarray:
    """The (len(ids), 2) uint64 Philox keys of SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)."""
    word = np.arange(ids.start, ids.stop, ids.step, dtype=np.uint32)[:, None]
    state = _hash(_mix(_seed_pool(seed), _hash(word, _HASH_A[16:])), _HASH_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)  # as generate_state reads 4 words as 2


@functools.lru_cache(maxsize=1)
def _seed_pool(seed: int) -> np.ndarray:
    """The 4 pool words after the 16 hash steps that see only the seed (its two words, zero-padded,
    then their cross-mix on 1-element slices), as a read-only uint32 row, once per seed."""
    pool = _hash(np.array([seed % 2**32, seed >> 32, 0, 0], np.uint32), _HASH_A[:5])
    for step, (src, dst) in enumerate(itertools.permutations(range(4), 2), start=4):
        pool[dst : dst + 1] = _mix(pool[dst : dst + 1], _hash(pool[src : src + 1], _HASH_A[step : step + 2]))
    pool.flags.writeable = False
    return pool


@functools.cache
def _philox_key_type() -> type:
    """A SeedSequence stand-in that hands Philox a precomputed key.

    Philox takes only an ISeedSequence, and `numpy.random` is imported here,
    on first use, so that `import certbound` does not load it.
    """

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):  # Philox asks for (2, np.uint64) alone
            return self.key

    return PhiloxKey
