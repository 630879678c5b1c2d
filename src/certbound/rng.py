"""Reproducible, splittable random number streams.

All Monte-Carlo code in this package draws its randomness through
`stream_rng`, which derives an independent counter-based (Philox) stream
from a 64-bit root seed in [0, 2^64) and an arbitrary tuple of stream
identifiers.  A stream's draws therefore depend only on the seed and its
identifiers, not on which other streams were drawn before it.  Library calls
that draw take the `np.random.Generator` itself, as a parameter named `rng`;
`stream_rng(seed)` is the root stream of a seed.

`stream_rngs(seed, ids)` makes the streams `stream_rng(seed, i)` of a batch of
ids.  It derives every Philox key of the batch in one vectorized pass of
numpy's SeedSequence hash (O'Neill's seed_seq mix, as numpy 1.19 and later
run it) instead of one Python-paced SeedSequence per stream.  Neither
function imports `numpy.random` before its first call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParameterError

_MASK = 0xFFFFFFFF


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:  # refused, not masked: reports and manifests echo the seed as given
        raise InvalidParameterError(f"seed must be in [0, 2^64), got {seed}")
    return seed


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


def _constants(init: int, mult: int, count: int) -> list[int]:
    """init * mult^i mod 2^32 for i = 0 ... count - 1: the hash constants of SeedSequence's successive steps."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK)
    return out


# A SeedSequence with a one-word spawn key fills its pool in 20 hash steps (constants A: 4 for the
# seed words, 12 for the cross-mix, 4 for the id word) and draws the 4 words of a Philox key from it
# (constants B); hash step i xors with C[i] and multiplies by C[i + 1].
_HASH_A = _constants(0x43B0D7E5, 0x931E8875, 21)
_HASH_B = _constants(0x8B51F9DD, 0x58F38DED, 5)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# the same constants as uint32 rows, for the steps that run on a batch: the id word's hash into
# each pool word (steps 16 ... 19), the mix, and the key draw
_ID_XOR, _ID_MUL = np.array(_HASH_A[16:20], np.uint32), np.array(_HASH_A[17:21], np.uint32)
_KEY_XOR, _KEY_MUL = np.array(_HASH_B[:4], np.uint32), np.array(_HASH_B[1:5], np.uint32)
_MIX_R_U32 = np.uint32(_MIX_R)


def _hash(value: int, step: int) -> int:
    """Hash step `step` of the pool: xor, multiply mod 2^32, xor-shift."""
    value = (value ^ _HASH_A[step]) * _HASH_A[step + 1] & _MASK
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK
    return value ^ value >> 16


def _philox_keys(seed: int, ids: range) -> np.ndarray:
    """The (len(ids), 2) uint64 Philox keys of SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64).

    The id word and the key draw run on (ids, 4) uint32 arrays, whose
    products wrap mod 2^32 with no warning.
    """
    word = np.arange(ids.start, ids.stop, ids.step, dtype=np.uint32)[:, None]
    hashed = (word ^ _ID_XOR) * _ID_MUL
    hashed ^= hashed >> 16
    state = _seed_pool(seed) - _MIX_R_U32 * hashed  # _mix, wrapping
    state ^= state >> 16
    state ^= _KEY_XOR
    state *= _KEY_MUL
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)  # as generate_state reads 4 words as 2


@functools.lru_cache(maxsize=1)
def _seed_pool(seed: int) -> np.ndarray:
    """_MIX_L * w mod 2^32 of each pool word after the 16 hash steps that see only the seed, as a
    read-only uint32 row: they run on Python ints, once per seed rather than once per batch."""
    words = [seed & _MASK, seed >> 32] if seed >> 32 else [seed]
    pool = [_hash(w, i) for i, w in enumerate(words + [0] * (4 - len(words)))]
    step = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], step))
                step += 1
    row = np.array([_MIX_L * x & _MASK for x in pool], np.uint32)
    row.flags.writeable = False
    return row


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
