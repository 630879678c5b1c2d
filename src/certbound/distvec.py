"""Exact arithmetic on finite probability vectors.

Provides the truncation operators (dropping the largest entry, dropping an
epsilon-weight tail of smallest entries), the l_p quasi-norms governing
certification sample complexity, and the Renyi/min entropies.  All
entropies are in bits.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .floattext import join_reprs

NORMALIZATION_TOL = 1e-9

_MAGIC = b"PVEC1"

_FSUM_CHUNK = 1 << 16
# from this many entries on the binned kernel beats math.fsum: its fixed cost, ~70 us, is
# what fsum takes for ~2 000 floats
_BINNED_MIN = 1 << 12
# entries whose biased exponent reaches this (|x| >= 2^960, inf, nan) take fsum's path, which
# owns overflow and non-finite behaviour; smaller ones cannot overflow a prefix sum
_HUGE_EXP = 0x7FF - 64
_MANTISSA = (1 << 52) - 1
_HALF = 26


def _fsum(x: np.ndarray, p: float | None = None) -> float:
    """Correctly rounded sum of the float64 entries of x, or of x**p: math.fsum's bits over a list."""
    if p is None:
        return _fsum_terms(x.size, lambda i, n, out: x[i : i + n])
    return _fsum_terms(x.size, lambda i, n, out: np.power(x[i : i + n], p, out=out))


def _fsum_terms(size: int, term) -> float:
    """Correctly rounded sum of size terms, made a chunk at a time: math.fsum's bits over a list.

    term(i, n, out) returns the float64 terms i .. i+n-1, written into out
    where out is given (None asks for a new array); so no whole-array
    temporary is made.  From 2^12 terms on, an exact binned kernel does the
    sum (Neal, arXiv:1505.05571).  Each chunk of 2^16 terms is read as int64
    bits: term = +-m * 2^(e - 1075), with the implicit bit added to m where
    the exponent field e is nonzero, and e = 1 for subnormals.  m splits
    into hi * 2^26 + lo, and np.bincount sums hi and lo per exponent in
    float64; every partial sum is an integer below 2^16 * 2^27 < 2^53, so it
    is exact.  Integer bins fold into one Python int in units of 2^-1074,
    and int true division rounds it once, correctly, as fsum does.  The sum
    does not depend on the order of the terms.

    math.fsum is the path for short inputs, for inputs with a term of
    magnitude >= 2^960 (inf and nan among them, so fsum's inf, nan,
    OverflowError and ValueError stay), and for an exact zero sum, whose
    sign is fsum's to choose.  Its Python floats are made one chunk at a
    time, so no whole-array list fills the interpreter's small-object arenas.
    """
    if size >= _BINNED_MIN:
        total = _binned_sum(size, term)
        if total is not None:
            return total
    chunks = (term(i, min(_FSUM_CHUNK, size - i), None) for i in range(0, size, _FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(c.tolist() for c in chunks))


def _binned_sum(size: int, term) -> float | None:
    """The exact kernel of _fsum_terms; None where fsum's path must decide (see there).

    Bin totals are int64, exact below 2^36 terms.
    """
    width = min(size, _FSUM_CHUNK)
    e_buf, m_buf, w_buf = np.empty(width, np.int64), np.empty(width, np.int64), np.empty(width)
    hi_bins, lo_bins = np.zeros(0x800, np.int64), np.zeros(0x800, np.int64)
    for i in range(0, size, width):
        n = min(width, size - i)
        e, m, w = e_buf[:n], m_buf[:n], w_buf[:n]
        bits = term(i, n, w).view(np.int64)
        np.right_shift(bits, 52, out=e)
        negative = e.min() < 0  # the sign bit shifts in from the left
        np.bitwise_and(e, 0x7FF, out=e)
        if e.max() >= _HUGE_EXP:
            return None
        np.bitwise_and(bits, _MANTISSA, out=m)
        np.bitwise_or(m, 1 << 52, out=m, where=e != 0)
        if negative:
            np.negative(m, out=m, where=bits < 0)
        np.maximum(e, 1, out=e)
        np.right_shift(m, _HALF, out=w, casting="unsafe")
        hi_bins += np.bincount(e, w, minlength=0x800).astype(np.int64)
        np.bitwise_and(m, (1 << _HALF) - 1, out=w, casting="unsafe")
        lo_bins += np.bincount(e, w, minlength=0x800).astype(np.int64)
    acc = 0
    for e in np.flatnonzero(hi_bins | lo_bins).tolist():
        acc += ((int(hi_bins[e]) << _HALF) + int(lo_bins[e])) << (e - 1)
    return acc / (1 << 1074) if acc else None


@dataclass(frozen=True)
class ProbVec:
    """A finite vector of non-negative reals; `normalized` says whether they sum to 1.

    Carries both true probability distributions and the truncated
    pseudo-distributions produced by `remove_max` / `truncate_tail`
    (which are deliberately not renormalized).
    """

    entries: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidParameterError("entries must be a 1-D vector of dimension >= 1")
        low, high = float(arr.min()), float(arr.max())  # nan in arr makes both nan
        if not (low >= 0 and high < math.inf):
            raise InvalidParameterError("entries must be finite and non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        # pairwise np.sum errs by ~1e-15 at 2^20 entries, far inside NORMALIZATION_TOL; an entry
        # above 1 + tol rules normalization out, and the sum it skips could overflow
        normalized = high <= 1.0 + NORMALIZATION_TOL and abs(float(np.sum(arr)) - 1.0) <= NORMALIZATION_TOL
        object.__setattr__(self, "normalized", normalized)

    @property
    def dim(self) -> int:
        return self.entries.size

    def sum(self) -> float:
        return _fsum(self.entries)

    @staticmethod
    def uniform(d: int) -> "ProbVec":
        if d < 1:
            raise InvalidParameterError("dimension must be >= 1")
        return ProbVec(np.full(d, 1.0 / d))

    @staticmethod
    def point_mass(d: int, index: int = 0) -> "ProbVec":
        if d < 1 or not 0 <= index < d:
            raise InvalidParameterError("need d >= 1 and 0 <= index < d")
        e = np.zeros(d)
        e[index] = 1.0
        return ProbVec(e)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """The text of json.dumps(entries.tolist()), written by floattext.join_reprs.

        Each entry's text is its repr, computed in numpy with Ryu's
        shortest-digit algorithm (Adams, PLDI 2018); the entries outside the
        kernel's range (-0.0, subnormals, values >= 2^50) take repr itself.
        """
        return "[" + join_reprs(self.entries) + "]"

    @staticmethod
    def from_json(text: str) -> "ProbVec":
        data = json.loads(text)
        # json.loads gives a number as int or float; bool is a subclass of int, but not int itself
        if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
            raise InvalidParameterError("JSON payload must be an array of numbers")
        return ProbVec(np.asarray(data, dtype=np.float64))

    def to_bytes(self) -> bytes:
        """Binary column format: magic 'PVEC1', u64 little-endian length, float64 payload."""
        payload = self.entries.astype("<f8", copy=False)  # entries are C-contiguous, so one copy in join
        return b"".join((_MAGIC, struct.pack("<Q", self.dim), payload.data))

    @staticmethod
    def from_bytes(blob: bytes) -> "ProbVec":
        if blob[:5] != _MAGIC:
            raise InvalidParameterError("bad magic; not a PVEC1 blob")
        if len(blob) < 13:
            raise InvalidParameterError("PVEC1 blob shorter than its 13-byte header")
        (length,) = struct.unpack("<Q", blob[5:13])
        arr = np.frombuffer(blob[13:], dtype="<f8")
        if arr.size != length:
            raise InvalidParameterError("length field does not match payload")
        return ProbVec(arr.copy())


def lp_quasinorm(v: ProbVec, p: float) -> float:
    """(sum |v_i|^p)^(1/p) for finite p > 0; max for p = inf; support count for p = 0.

    The sum of |v_i|^p is correctly rounded (_fsum, with the power taken
    chunk by chunk inside it), so the 2/3 quasi-norm of long near-uniform
    vectors is accurate to full double precision.
    """
    if not p >= 0:
        raise InvalidParameterError("p must be in (0, inf] or 0")
    x = v.entries
    if p == 0:
        return float(np.count_nonzero(x))
    if math.isinf(p):
        return float(x.max())
    s = _fsum(x, p)
    return s ** (1.0 / p)


def l1_distance(p: ProbVec, q: ProbVec) -> float:
    if p.dim != q.dim:
        raise InvalidParameterError(f"dimension mismatch: {p.dim} vs {q.dim}")
    a, b = p.entries, q.entries
    return _fsum_terms(a.size, lambda i, n, out: np.abs(np.subtract(a[i : i + n], b[i : i + n], out=out), out=out))


def remove_max(v: ProbVec) -> ProbVec:
    """Copy of v with one maximal entry zeroed (ties broken at lowest index)."""
    out = v.entries.copy()
    out[int(np.argmax(out))] = 0.0
    return ProbVec(out)


def _zero_tail(out: np.ndarray, eps: float) -> None:
    """Zero, in place, the smallest entries of `out` while their sum stays <= eps.

    The cut count comes from a sequential cumsum over the sorted values;
    ties at the cut value break at the lowest index.
    """
    if not eps >= 0:
        raise InvalidParameterError("eps must be >= 0")
    ascending = np.sort(out)
    k = int(np.searchsorted(np.cumsum(ascending), eps, side="right"))
    if k == 0:
        return
    cut = ascending[k - 1]
    below = out < cut
    ties = np.flatnonzero(out == cut)[: k - int(np.count_nonzero(below))]
    out[below] = 0.0
    out[ties] = 0.0


def truncate_tail(v: ProbVec, eps: float) -> ProbVec:
    """Greedily zero the smallest nonzero entries while their sum stays <= eps.

    Removal is maximal under the constraint: entries are taken in ascending
    order of value (ties at the lowest index) and zeroed until the next one
    would push the removed weight above eps.  Only the values are sorted;
    the running sum is a sequential cumsum over them, so it adds in exactly
    that order.
    """
    out = v.entries.copy()
    _zero_tail(out, eps)
    return ProbVec(out)


def truncated_core(v: ProbVec, eps: float) -> ProbVec:
    """remove_max first, then truncate_tail(eps), on one working copy.

    For eps >= 1 - max(v) everything but the (already removed) max is
    removable and the result can be the all-zero vector.
    """
    out = v.entries.copy()
    out[int(np.argmax(out))] = 0.0
    _zero_tail(out, eps)
    return ProbVec(out)


def renyi_entropy(v: ProbVec, alpha: float) -> float:
    """alpha-Renyi entropy in bits, alpha in [0, inf], alpha != 1."""
    if not v.normalized:
        raise InvalidParameterError("renyi_entropy requires a normalized vector")
    if alpha == 1:
        raise InvalidParameterError("alpha = 1 (Shannon) is out of scope")
    if not alpha >= 0:
        raise InvalidParameterError("alpha must be >= 0")
    if math.isinf(alpha):
        return min_entropy(v)
    if alpha == 0:
        return math.log2(np.count_nonzero(v.entries))
    return alpha / (1.0 - alpha) * math.log2(lp_quasinorm(v, alpha)) + 0.0  # +0.0 for a point mass, not -0.0


def min_entropy(v: ProbVec) -> float:
    """-log2 of the largest entry."""
    if not v.normalized:
        raise InvalidParameterError("min_entropy requires a normalized vector")
    m = float(v.entries.max())
    if m <= 0:
        raise InvalidParameterError("all-zero vector has no min-entropy")
    return 0.0 - math.log2(m)  # +0.0 for a point mass, where -log2(1.0) is -0.0
