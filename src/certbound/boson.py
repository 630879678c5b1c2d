"""Boson-sampling distributions and the concentration machinery behind their flatness.

Distributions are exact over the full mode-occupation sample space at desk
scale, and one subset-sum Ryser kernel, `_ryser`, evaluates every permanent,
multiplying each outcome's subset sums photon by photon.  Phi is held as its
sorted photon -> mode index rows, built a column at a time by prefix
expansion (`_sorted_rows`), and its prod_j s_j! denominators come from the
run lengths of those rows.  `BosonEnsemble.distributions(count)` runs every
ensemble's one batch loop, `qsim._batched`, with a kernel that closes over
Phi and its denominators, built once per sweep: each instance's two Ginibre
matrices are drawn from its own stream into one (k, m, m) stack that one QR
call factors, and one Ryser pass takes the stacked (k m, n) first columns
with Phi's index rows offset by j m for instance j.  `boson_distribution` is
the same kernel with one instance, and `_ryser` sums each row's signed
products on its own, so an instance has the same bits alone and inside any
batch.  The tail/concentration bounds are evaluated as fully explicit
formulas.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distvec import ProbVec, _fsum
from .errors import InvalidParameterError, ResourceLimitError, MAX_OUTCOMES, read_instance_json
from .qsim import _batched, _check_unitary, _ginibre, _haar_from_ginibre, haar_unitary
from .rng import stream_rng

# entries per chunk of the batched kernels (subset sums gathered by the Ryser kernel, occupation
# numbers counted for labels, and the index rows and unitary entries of a batch of ensemble
# instances): 1 MB of scratch
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True, slots=True)
class ModeOccupation:
    """Occupation numbers of m modes holding n photons in total."""

    s: tuple

    def __post_init__(self):
        try:  # operator.index takes Python and numpy integers, and refuses floats and strings
            s = tuple(map(operator.index, self.s))
        except TypeError:
            s = ()
        if not s or min(s) < 0 or bool in map(type, self.s):
            raise InvalidParameterError("occupations must be non-negative integers")
        object.__setattr__(self, "s", s)

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        return sum(self.s)

    @property
    def collision_free(self) -> bool:
        return all(x <= 1 for x in self.s)

    def __str__(self) -> str:
        return _row_text(self.s)


def _row_text(row) -> str:
    """One outcome's occupation numbers as text: its digits, or the numbers joined by commas if one exceeds 9."""
    return ("," if max(row) > 9 else "").join(map(str, row))


def _occupation_text(occ: np.ndarray) -> list[str]:
    """_row_text of each row of an (outcomes, m) array of occupation numbers."""
    if occ.max() <= 9:  # occ has a row at least: _counts yields no empty chunk
        text, m = (occ.astype(np.uint8) + ord("0")).tobytes().decode("ascii"), occ.shape[1]
        return [text[i : i + m] for i in range(0, len(text), m)]
    return list(map(_row_text, occ.tolist()))


@dataclass(frozen=True)
class BosonInstance:
    """n photons entering the first n of m modes of an m x m interferometer."""

    n: int
    m: int
    U: np.ndarray

    def __post_init__(self):
        _check_modes(self.n, self.m)
        U = np.asarray(self.U, dtype=np.complex128)
        if U.shape != (self.m, self.m):
            raise InvalidParameterError("U must be m x m")
        if not np.max(np.abs(U.conj().T @ U - np.eye(self.m))) <= 1e-10:  # so NaN entries fail too
            raise InvalidParameterError("U is not unitary to 1e-10")
        U = U.copy()
        U.flags.writeable = False
        object.__setattr__(self, "U", U)

    @staticmethod
    def haar(n: int, m: int, rng: np.random.Generator) -> "BosonInstance":
        return BosonInstance(n=n, m=m, U=haar_unitary(m, rng))

    def to_json(self) -> str:
        interleaved = np.empty(2 * self.m * self.m)
        interleaved[0::2] = self.U.real.ravel()
        interleaved[1::2] = self.U.imag.ravel()
        return json.dumps({"n": self.n, "m": self.m, "U_re_im": interleaved.tolist()})

    @staticmethod
    def from_json(text: str) -> "BosonInstance":
        data = read_instance_json(text, ("n", "m"), ("U_re_im",))
        n, m, flat = data["n"], data["m"], data["U_re_im"]
        if len(flat) != 2 * m * m:
            raise InvalidParameterError(f"U_re_im must hold 2 m^2 = {2 * m * m} numbers")
        flat = np.asarray(flat, dtype=np.float64)
        U = (flat[0::2] + 1j * flat[1::2]).reshape(m, m)
        return BosonInstance(n=n, m=m, U=U)


def _check_modes(n: int, m: int):
    if not 1 <= n <= m:
        raise InvalidParameterError("need m >= n >= 1")


class OutcomeSpace(Sequence):
    """Phi, or its collision-free subset (empty if n > m), in largest-first-mode order, stored as
    the sorted photon -> mode rows that itertools' combinations yield; outcomes are built on read."""

    def __init__(self, m: int, n: int, collision_free_only: bool = False):
        if m < 1 or n < 0:
            raise InvalidParameterError("need m >= 1 and n >= 0")
        size = math.comb(m, n) if collision_free_only else math.comb(m + n - 1, n)
        if size > MAX_OUTCOMES:
            raise ResourceLimitError(f"|Phi| = {size} exceeds the cap of {MAX_OUTCOMES}")
        self.m, self.rows = m, _sorted_rows(m, n, int(collision_free_only))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> ModeOccupation:
        return ModeOccupation(tuple(np.bincount(self.rows[i], minlength=self.m)))

    def _counts(self):
        """The outcomes' occupation numbers, in order, as (outcomes, m) arrays counted a chunk of rows at once."""
        step = max(1, _CHUNK_ENTRIES // self.m)
        first_cell = np.arange(step)[:, None] * self.m  # of each row's counts in a chunk's flat count array
        for i in range(0, len(self.rows), step):
            rows = self.rows[i : i + step]
            cell = (first_cell[: len(rows)] + rows).ravel()
            yield np.bincount(cell, minlength=len(rows) * self.m).reshape(-1, self.m)

    def __iter__(self):
        for counts in self._counts():
            yield from map(ModeOccupation, counts.tolist())

    def labels(self) -> list[str]:
        """str() of every outcome, in order, without an object each."""
        return list(itertools.chain.from_iterable(map(_occupation_text, self._counts())))


def _sorted_rows(m: int, n: int, gap: int) -> np.ndarray:
    """The rows of itertools' combinations_with_replacement(range(m), n) (gap 0) or
    combinations(range(m), n) (gap 1), in its order, in the smallest dtype that holds m - 1.

    They are built by prefix expansion, a column at a time: a distinct
    prefix of length k that ends at u extends to u + gap, ..., top, where
    top leaves room for the entries after it (to none, if gap 1 and n > m).
    So each prefix's row is repeated once per extension, and column k is a
    ragged int32 arange over the prefixes.  Columns past k are filled later.
    """
    rows, last = np.zeros((1, n), np.min_scalar_type(m - 1)), np.array([-gap], np.int32)  # the empty prefix
    for k in range(n):
        starts = last + gap
        width = (m - gap * (n - 1 - k) - starts).clip(0)  # top + 1 - start
        last = np.repeat(starts - (np.cumsum(width, dtype=np.int32) - width), width)
        last += np.arange(len(last), dtype=np.int32)
        rows = np.repeat(rows, width, axis=0)
        rows[:, k] = last
    return rows


def enumerate_phi(m: int, n: int, collision_free_only: bool = False) -> list[ModeOccupation]:
    """All length-m occupation sequences summing to n (see OutcomeSpace), as a list."""
    return list(OutcomeSpace(m, n, collision_free_only))


@functools.cache
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2^n - 1, n) 0/1 mask of the non-empty column subsets S, and their signs (-1)^(n - |S|)."""
    if 2**n - 1 > MAX_OUTCOMES:  # the mask and the row sums each take 16 n 2^n bytes
        raise ResourceLimitError(f"the 2^{n} - 1 column subsets exceed the cap of {MAX_OUTCOMES}")
    mask = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(np.complex128)
    sign = (-1.0) ** (n - mask.real.sum(axis=1)) + 0j
    mask.flags.writeable = sign.flags.writeable = False
    return mask, sign


def _ryser(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Perm(cols[r]) for each index row r: sum_S sign_S prod_i sums[r_i, S], sums = cols @ mask.T.

    The rows are taken a chunk at a time.  Each chunk's products are
    contracted with the signs by np.einsum, which calls no BLAS and sums each
    row on its own, so a row has the same bits in any chunk, alone or not.
    """
    mask, sign = _subsets(cols.shape[1])
    sums = cols @ mask.T
    step = max(1, _CHUNK_ENTRIES // mask.size)
    return np.concatenate([
        np.einsum("ij,j->i", _products(sums, rows[i : i + step]), sign) for i in range(0, len(rows), step)
    ])


def _products(sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """prod_i sums[r_i] for each index row r, taken photon by photon.

    These are the products of sums[rows].prod(axis=1), formed in the same
    order, without its (rows, n, 2^n - 1) gather reduced along a strided axis.
    """
    acc = sums.take(rows[:, 0], axis=0)  # take gathers whole rows faster than fancy indexing does
    for c in range(1, rows.shape[1]):
        acc *= sums.take(rows[:, c], axis=0)
    return acc


def permanent(x: np.ndarray, method: str = "ryser") -> complex:
    """Permanent of a square matrix.

    'naive' sums over all n! permutations (the definition; oracle use only),
    'ryser' is the O(n 2^n) inclusion-exclusion formula, evaluated by the
    subset-sum kernel that `boson_distribution` uses.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidParameterError("permanent requires a square matrix")
    if method == "naive":
        return _permanent_naive(x)
    if method == "ryser":
        return complex(_ryser(x, np.arange(len(x))[None, :])[0]) if len(x) else complex(1.0)
    raise InvalidParameterError(f"unknown method {method!r}")


def _permanent_naive(x: np.ndarray) -> complex:
    n = x.shape[0]
    rows = np.arange(n)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        total += np.prod(x[rows, perm])
    return complex(total)


def submatrix(inst: BosonInstance, occ: ModeOccupation) -> np.ndarray:
    """U_S: first n columns of U, then s_j copies of row j, in mode order."""
    if occ.m != inst.m or occ.n != inst.n:
        raise InvalidParameterError("occupation does not match the instance")
    cols = inst.U[:, : inst.n]
    return np.repeat(cols, occ.s, axis=0)


def boson_distribution(inst: BosonInstance) -> tuple[ProbVec, OutcomeSpace]:
    """Exact output distribution P(S) = |Perm(U_S)|^2 / prod_j s_j! over all of Phi."""
    outcomes = OutcomeSpace(inst.m, inst.n)
    return ProbVec(_probabilities(inst.U[None], outcomes.rows, _factorials(outcomes.rows))[0]), outcomes


def _factorials(rows: np.ndarray) -> np.ndarray:
    """prod_j s_j! of each outcome, from its sorted photon -> mode index row.

    prod_j s_j! = prod_k (1 + earlier photons in photon k's mode), and in a
    sorted row those photons are the run of equal entries just before k.
    """
    denom, run = np.ones(len(rows)), np.zeros(len(rows), dtype=np.int64)
    for k in range(1, rows.shape[1]):
        run = (run + 1) * (rows[:, k] == rows[:, k - 1])
        denom *= run + 1
    return denom


def _probabilities(U: np.ndarray, rows: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """P(S) for each outcome's index row, one row of P per unitary of the (k, m, m) stack U.

    U_S stacks rows of U, so one Ryser pass serves every S of every instance:
    the k unitaries' first n columns are one (k m, n) matrix, and instance j's
    outcomes index it from row j m on.
    """
    k, m, _ = U.shape
    n = rows.shape[1]
    offsets = np.arange(0, k * m, m, dtype=np.min_scalar_type(k * m - 1))[:, None, None]
    perms = _ryser(U[:, :, :n].reshape(k * m, n), (rows + offsets).reshape(-1, n))
    return (np.abs(perms) ** 2).reshape(k, -1) / denom


def collision_weight(inst: BosonInstance) -> float:
    """Probability weight outside the collision-free subspace."""
    p, outcomes = boson_distribution(inst)
    colliding = np.any(outcomes.rows[:, 1:] == outcomes.rows[:, :-1], axis=1)
    return _fsum(p.entries[colliding])


def gaussian_repeated_sample(occ: ModeOccupation, n: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of the row-repeated complex Gaussian measure for occupation occ.

    An |S-tilde| x n matrix of i.i.d. complex Gaussians (real and imaginary
    parts mean 0, s.d. sigma) has row j repeated s-tilde_j times, where
    S-tilde drops the zero occupations of occ.
    """
    if sigma <= 0:
        raise InvalidParameterError("sigma must be > 0")
    if occ.n != n:
        raise InvalidParameterError("occupation must sum to n")
    tilde = [x for x in occ.s if x > 0]
    base = sigma * (rng.standard_normal((len(tilde), n)) + 1j * rng.standard_normal((len(tilde), n)))
    return np.repeat(base, tilde, axis=0)


def gaussian_concentration_bound(n: int, sigma: float, xi: float) -> float:
    """Pr[max entry magnitude >= xi] <= 1 - (1 - erfc(xi / (sqrt(2) sigma)))^(n^2)."""
    if xi < 0:
        raise InvalidParameterError("xi must be >= 0")
    if sigma <= 0 or n < 1:
        raise InvalidParameterError("need sigma > 0 and n >= 1")
    e = math.erfc(xi / (math.sqrt(2.0) * sigma))
    return 1.0 - (1.0 - e) ** (n * n)


def trivial_permanent_bound(x: np.ndarray) -> float:
    """(n!)^2 (max |x_jk|)^(2n), an elementary bound on |Perm(x)|^2."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidParameterError("need a square matrix")
    n = x.shape[0]
    return math.factorial(n) ** 2 * float(np.max(np.abs(x))) ** (2 * n)


def bs_flatness_tail_bound(n: int, m: int, c: float = 1.0, C: float = 0.0) -> float:
    """Explicit upper bound on Pr[exists S with P(S) >= 2^(-2n)] for m = c n^nu modes.

    Combines the union bound over the sample space, the elementary permanent
    bound, Gaussian concentration with erfc(x) <= exp(-x^2), and a
    geometric-series bound valid when n^2 e^(-x^2+1) <= 1/2; returns +inf
    when that convergence condition fails.
    """
    if m < n:
        raise InvalidParameterError("need m >= n")
    if n < 2:
        raise InvalidParameterError("need n >= 2 to infer nu")
    if not (c > 0 and C >= 0):
        raise InvalidParameterError("need c > 0 and C >= 0")
    nu = math.log(m / c) / math.log(n)
    # x^2 = (c/2) eps^(1/n) e^(-2/n+2) n^(nu-2-1/n) with eps = 2^(-2n)
    eps_root = 2.0**-2.0  # (2^-2n)^(1/n)
    x2 = (c / 2.0) * eps_root * math.exp(-2.0 / n + 2.0) * n ** (nu - 2.0 - 1.0 / n)
    series_term = n * n * math.exp(-x2 + 1.0)
    if series_term > 0.5:
        return math.inf
    log_bound = (
        math.log(1.0 + C)
        + n * math.log(2.0 * (c + 1.0) * math.e)
        + (nu - 1.0) * n * math.log(n)
        + math.log(2.0 * n * n)
        + (-x2 + 1.0)
    )
    if log_bound > 700:
        return math.inf
    return math.exp(log_bound)


def phi_size_bound(n: int, nu: float, c: float) -> float:
    """(2 (c+1) e)^n n^((nu-1) n), the closed-form cap on |Phi| used by the tail bound."""
    if n < 1 or c < 0:
        raise InvalidParameterError("need n >= 1 and c >= 0")
    log_val = n * math.log(2.0 * (c + 1.0) * math.e) + (nu - 1.0) * n * math.log(n)
    return math.exp(log_val) if log_val <= 700 else math.inf


@dataclass(frozen=True)
class BosonEnsemble:
    """Ensemble of Haar-interferometer boson-sampling instances at fixed (n, m)."""

    n: int
    m: int
    seed: int
    kind: ClassVar[str] = "boson"

    def __post_init__(self):
        # what every instance would refuse, refused before a sweep's first draw
        _check_modes(self.n, self.m)
        _check_unitary(self.m)

    @property
    def sample_space_size(self) -> int:
        return math.comb(self.m + self.n - 1, self.n)

    def instance(self, i: int) -> BosonInstance:
        return BosonInstance.haar(self.n, self.m, stream_rng(self.seed, i))

    def instance_distribution(self, i: int) -> ProbVec:
        return boson_distribution(self.instance(i))[0]

    def distributions(self, count: int):
        """instance_distribution(i) for i = 0 ... count-1, in index order, with the same bits.

        Phi and its denominators are built once.  Instances are simulated
        max(1, _CHUNK_ENTRIES // (n |Phi| + m^2)) at a time by `qsim._batched`,
        so a batch's index rows and unitaries stay within _CHUNK_ENTRIES
        entries: one QR call factors the batch's Ginibre stack and one Ryser
        pass serves all its outcomes.
        """
        outcomes = OutcomeSpace(self.m, self.n)
        rows, denom = outcomes.rows, _factorials(outcomes.rows)
        size = max(1, _CHUNK_ENTRIES // (rows.size + self.m**2))

        def batch(streams, k):
            return _probabilities(_haar_from_ginibre(*_ginibre(streams, k, (self.m, self.m))), rows, denom)

        return _batched(self.seed, count, size, batch)
