"""Exact arithmetic on finite probability vectors.

Provides the truncation operators (dropping the largest entry, dropping an
epsilon-weight tail of smallest entries), the l_p quasi-norms governing
certification sample complexity, and the Renyi/min entropies.  All
entropies are in bits.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

NORMALIZATION_TOL = 1e-9

_MAGIC = b"PVEC1"


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
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InvalidParameterError("entries must be finite and non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        # pairwise np.sum errs by ~1e-15 at 2^20 entries, far inside NORMALIZATION_TOL
        object.__setattr__(self, "normalized", abs(float(np.sum(arr)) - 1.0) <= NORMALIZATION_TOL)

    @property
    def dim(self) -> int:
        return self.entries.size

    def sum(self) -> float:
        return math.fsum(self.entries.tolist())

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
        return json.dumps(self.entries.tolist())

    @staticmethod
    def from_json(text: str) -> "ProbVec":
        data = json.loads(text)
        if not isinstance(data, list):
            raise InvalidParameterError("JSON payload must be an array of numbers")
        return ProbVec(np.asarray(data, dtype=np.float64))

    def to_bytes(self) -> bytes:
        """Binary column format: magic 'PVEC1', u64 little-endian length, float64 payload."""
        payload = self.entries.astype("<f8").tobytes()
        return _MAGIC + struct.pack("<Q", self.dim) + payload

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

    Summation is compensated (math.fsum), so the 2/3 quasi-norm of long
    near-uniform vectors is accurate to full double precision.
    """
    if not p >= 0:
        raise InvalidParameterError("p must be in (0, inf] or 0")
    x = v.entries
    if p == 0:
        return float(np.count_nonzero(x))
    if math.isinf(p):
        return float(x.max())
    s = math.fsum(np.power(x, p).tolist())
    return s ** (1.0 / p)


def l1_distance(p: ProbVec, q: ProbVec) -> float:
    if p.dim != q.dim:
        raise InvalidParameterError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return math.fsum(np.abs(p.entries - q.entries).tolist())


def remove_max(v: ProbVec) -> ProbVec:
    """Copy of v with one maximal entry zeroed (ties broken at lowest index)."""
    out = v.entries.copy()
    out[int(np.argmax(out))] = 0.0
    return ProbVec(out)


def truncate_tail(v: ProbVec, eps: float) -> ProbVec:
    """Greedily zero the smallest nonzero entries while their sum stays <= eps.

    Removal is maximal under the constraint: entries are visited in
    ascending order (ties at lowest index) and zeroed until the next one
    would push the removed weight above eps.  The running sum is a
    sequential cumsum, so it adds in exactly that order.
    """
    if not eps >= 0:
        raise InvalidParameterError("eps must be >= 0")
    out = v.entries.copy()
    order = np.argsort(out, kind="stable")
    out[order[: np.searchsorted(np.cumsum(out[order]), eps, side="right")]] = 0.0
    return ProbVec(out)


def truncated_core(v: ProbVec, eps: float) -> ProbVec:
    """remove_max first, then truncate_tail(eps).

    For eps >= 1 - max(v) everything but the (already removed) max is
    removable and the result can be the all-zero vector.
    """
    return truncate_tail(remove_max(v), eps)


def renyi_entropy(v: ProbVec, alpha: float) -> float:
    """alpha-Renyi entropy in bits, alpha in [0, inf], alpha != 1."""
    if not v.normalized:
        raise InvalidParameterError("renyi_entropy requires a normalized vector")
    if alpha == 1:
        raise InvalidParameterError("alpha = 1 (Shannon) is out of scope")
    if alpha < 0:
        raise InvalidParameterError("alpha must be >= 0")
    if math.isinf(alpha):
        return min_entropy(v)
    if alpha == 0:
        return math.log2(np.count_nonzero(v.entries))
    return alpha / (1.0 - alpha) * math.log2(lp_quasinorm(v, alpha))


def min_entropy(v: ProbVec) -> float:
    """-log2 of the largest entry."""
    if not v.normalized:
        raise InvalidParameterError("min_entropy requires a normalized vector")
    m = float(v.entries.max())
    if m <= 0:
        raise InvalidParameterError("all-zero vector has no min-entropy")
    return -math.log2(m)
