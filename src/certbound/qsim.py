"""Qubit-ensemble output distributions: IQP circuits, Haar states, local random circuits.

All distributions are returned as ProbVec over the 2^n computational-basis
outcomes, indexed by the integer value of the bit string (qubit 0 is the
most significant bit).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distvec import ProbVec
from .errors import InvalidParameterError, ResourceLimitError, MAX_QUBITS
from .rng import stream_rng

DEFAULT_ANGLE_SET = tuple(k * math.pi / 8 for k in range(8))

CIRCUIT_KINDS = ("iqp", "haar_state", "local_random")


@dataclass(frozen=True)
class IqpWeights:
    """A symmetric n x n angle matrix defining one commuting-gate circuit.

    Diagonal entries are vertex weights, off-diagonal entries edge weights;
    all are drawn from the finite angle set.
    """

    n: int
    angle_set: tuple
    w: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("n must be >= 1")
        w = np.asarray(self.w, dtype=np.float64)
        if w.shape != (self.n, self.n):
            raise InvalidParameterError("w must be an n x n matrix")
        if not np.array_equal(w, w.T):
            raise InvalidParameterError("w must be symmetric")
        angles = np.asarray(self.angle_set, dtype=np.float64)
        if not np.all(np.isin(w, angles)):
            raise InvalidParameterError("every weight must belong to angle_set")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "angle_set", tuple(float(a) for a in angles))

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "IqpWeights":
        """Weights drawn uniformly from DEFAULT_ANGLE_SET."""
        angles = np.asarray(DEFAULT_ANGLE_SET, dtype=np.float64)
        w = angles[rng.integers(0, angles.size, size=(n, n))]
        w = np.triu(w) + np.triu(w, 1).T
        return IqpWeights(n=n, angle_set=DEFAULT_ANGLE_SET, w=w)

    def to_json(self) -> str:
        upper = [float(self.w[i, j]) for i in range(self.n) for j in range(i, self.n)]
        return json.dumps({"n": self.n, "angle_set": list(self.angle_set), "upper_triangle": upper})

    @staticmethod
    def from_json(text: str) -> "IqpWeights":
        data = json.loads(text)
        n = int(data["n"])
        upper = data["upper_triangle"]
        w = np.zeros((n, n))
        k = 0
        for i in range(n):
            for j in range(i, n):
                w[i, j] = w[j, i] = upper[k]
                k += 1
        return IqpWeights(n=n, angle_set=tuple(data["angle_set"]), w=w)


@dataclass(frozen=True)
class CircuitEnsemble:
    """Descriptor for a random-circuit ensemble at fixed qubit count."""

    kind: str
    n: int
    seed: int
    depth: int = 0

    def __post_init__(self):
        if self.kind not in CIRCUIT_KINDS:
            raise InvalidParameterError(f"unknown ensemble kind {self.kind!r}")
        _check_qubits(self.n)
        if self.depth < 0:
            raise InvalidParameterError("depth must be >= 0")

    @property
    def sample_space_size(self) -> int:
        return 2**self.n

    def instance_distribution(self, instance: int) -> ProbVec:
        """Output distribution of the `instance`-th member (reproducible)."""
        rng = stream_rng(self.seed, instance)
        if self.kind == "iqp":
            return iqp_output_distribution(IqpWeights.random(self.n, rng))
        if self.kind == "haar_state":
            return haar_state_distribution(self.n, rng)
        return local_random_circuit_distribution(self.n, self.depth, rng)


def _check_qubits(n: int):
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n > MAX_QUBITS:
        raise ResourceLimitError(f"n = {n} exceeds the configured maximum of {MAX_QUBITS} qubits")


# Entries of one complex block in the simulators' amplitude steps: 8 MiB, no larger than a
# float64 vector at the 2^20 cap.  glibc raises its mmap threshold to the largest block freed,
# so one 16 MiB array would move every later 8-16 MiB array onto the heap, whose resident
# size then depends on allocation order and varied from one run to the next.
_BLOCK = 1 << 19


def fwht(a: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalized), in place on one copy of `a`."""
    return _fwht_inplace(a.copy())


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """fwht on `a` itself, with one half-size scratch buffer."""
    n = a.size
    diff = np.empty(n // 2, dtype=a.dtype)
    h = 1
    while h < n:
        pairs = a.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :], pairs[:, 1, :]
        d = diff.reshape(-1, h)
        np.subtract(top, bot, out=d)
        top += bot
        bot[...] = d
        h *= 2
    return a


def _fwht_blocks(blocks: list[np.ndarray]) -> None:
    """fwht, in place, of the concatenation of equal-size power-of-two blocks.

    Levels below the block size run inside each block and the rest pair whole
    blocks.  Every level adds and subtracts the same pairs as fwht on one
    array, so the bits are the same.
    """
    for b in blocks:
        _fwht_inplace(b)
    h = 1
    while h < len(blocks):
        diff = np.empty_like(blocks[0])
        for j in range(0, len(blocks), 2 * h):
            for top, bot in zip(blocks[j : j + h], blocks[j + h : j + 2 * h]):
                np.subtract(top, bot, out=diff)
                top += bot
                bot[...] = diff
        h *= 2


def iqp_output_distribution(w: IqpWeights) -> ProbVec:
    """Exact output distribution P(S) = |<S| U_W |0^n>|^2 of a commuting-gate circuit.

    U_W is diagonal in the X basis with phases
    theta(x) = sum_{i<j} w_ij chi_i(x) chi_j(x) + sum_i w_ii chi_i(x),
    chi_i(x) = (-1)^(x_i), so the amplitudes are the Walsh-Hadamard
    transform of the phase vector exp(i theta) divided by 2^n.

    theta is built by doubling: qubits are placed from the last to the first,
    each as the new most significant bit, theta' = [theta + a, theta - a] with
    a = w_ii + sum_{j placed} w_ij chi_j.  Row k of `acc` holds that sum for
    the k-th qubit not yet placed, so the build is O(2^n) work in O(n) numpy
    calls.
    """
    _check_qubits(w.n)
    theta = _phases(w)
    blocks = [np.exp(1j * theta[i : i + _BLOCK]) for i in range(0, theta.size, _BLOCK)]
    del theta
    _fwht_blocks(blocks)
    # the 1/2^n amplitude scale is a power of two, so dropping it before normalizing is exact
    return _probabilities(blocks)


def _phases(w: IqpWeights) -> np.ndarray:
    """theta(x) for every x, built by doubling (see iqp_output_distribution)."""
    rev = w.w[::-1, ::-1]  # row/column i is qubit n - 1 - i
    theta = np.zeros(1)
    acc = np.diag(rev)[:, None]
    for i in range(w.n):
        a, acc = acc[0], acc[1:]
        theta = np.concatenate((theta + a, theta - a))
        col = rev[i + 1 :, i, None]
        acc = np.concatenate((acc + col, acc - col), axis=1)
    return theta


def _probabilities(blocks: list[np.ndarray]) -> ProbVec:
    """|a|^2 / sum |a|^2 for the amplitude vector a that the complex blocks concatenate to."""
    probs = np.empty(sum(b.size for b in blocks))
    i = 0
    for b in blocks:
        np.abs(b, out=probs[i : i + b.size])
        i += b.size
    np.square(probs, out=probs)
    probs /= probs.sum()
    return ProbVec(probs)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary via QR of a complex Ginibre matrix.

    The diagonal of R is rephased to positive reals, which makes the QR map
    measurable and the resulting Q exactly Haar-distributed.
    """
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def haar_state_distribution(n: int, rng: np.random.Generator) -> ProbVec:
    """|<S|psi>|^2 for a Haar-random state on 2^n dimensions.

    Drawn directly as a normalized complex Gaussian vector, which has the
    same distribution as the first column of a Haar unitary.
    """
    _check_qubits(n)
    dim = 2**n
    re, im = rng.standard_normal(dim), rng.standard_normal(dim)
    blocks = []
    for i in range(0, dim, _BLOCK):
        # re + 1j * im, but for the sign of a zero real part, which abs drops
        z = np.empty(min(dim, _BLOCK), dtype=complex)
        z.real, z.imag = re[i : i + _BLOCK], im[i : i + _BLOCK]
        blocks.append(z)
    del re, im
    return _probabilities(blocks)


def local_random_circuit_distribution(n: int, depth: int, rng: np.random.Generator) -> ProbVec:
    """Output distribution of `depth` Haar two-qubit gates on random 1-D neighbor pairs."""
    _check_qubits(n)
    if depth < 0:
        raise InvalidParameterError("depth must be >= 0")
    dim = 2**n
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    if n == 1:
        for _ in range(depth):
            psi = haar_unitary(2, rng) @ psi
    else:
        for _ in range(depth):
            q = int(rng.integers(0, n - 1))  # acts on neighbors (q, q+1)
            gate = haar_unitary(4, rng)
            psi = _apply_two_qubit_gate(psi, gate, q, n)
    probs = np.abs(psi) ** 2
    return ProbVec(probs / probs.sum())


def _apply_two_qubit_gate(psi: np.ndarray, gate: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply a 4x4 gate on adjacent qubits (q, q+1); qubit 0 is the most significant bit."""
    left = 2**q
    right = 2 ** (n - q - 2)
    psi = psi.reshape(left, 4, right)
    psi = np.einsum("ab,ibj->iaj", gate, psi)
    return np.ascontiguousarray(psi).reshape(-1)


def inverse_cdf(p: ProbVec):
    """p's inverse CDF: a map from uniforms in [0, 1) of any shape to int64 outcome indices."""
    if not p.normalized:
        raise InvalidParameterError("sampling requires a normalized distribution")
    cdf = np.cumsum(p.entries)
    cdf[-1] = 1.0
    return lambda u: np.searchsorted(cdf, u, side="right").astype(np.int64, copy=False)


def sample_outcomes(p: ProbVec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. outcome indices by inverse CDF from `rng`."""
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    return inverse_cdf(p)(rng.random(count))
