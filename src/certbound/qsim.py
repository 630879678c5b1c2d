"""Qubit-ensemble output distributions: IQP circuits, Haar states, local random circuits.

All distributions are returned as ProbVec over the 2^n computational-basis
outcomes, indexed by the integer value of the bit string (qubit 0 is the
most significant bit).

IQP and Haar amplitudes are held as two float64 arrays, one real and one
imaginary, no larger than 8 MiB each at the 2^20 cap: IQP takes cos and sin
of its phases and transforms each in place, and Haar states are the real and
imaginary Gaussians as drawn.  A local random circuit applies each gate as one
broadcast matmul from one complex state buffer into another, allocated once.
`_row_probabilities` is the one place where |a|^2 is formed, as re^2 + im^2
in place, so IQP and Haar-state simulation allocates no complex array at all.

Every ensemble, here and in `boson`, takes `instance_distribution(i)` and
`distributions(count)` from one sweep, `_Sweep`, and supplies a kernel
factory `_kernel()`: a batch size and a kernel rows(streams, k) that
simulates one row per stream.  Instance i is that kernel fed stream (seed, i),
alone or in a batch; `CircuitEnsemble._kernel` is the one place that picks
a simulator by kind.  An IQP or Haar-state batch of _BATCH_ENTRIES >> n
instances takes one phase build or `_ginibre` draw, two FWHTs and one
normalization; IQP weights are drawn as one stack by `_random_weights`, and
`IqpWeights.random` is that call with one stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distvec import ProbVec
from .errors import InvalidParameterError, ResourceLimitError, MAX_OUTCOMES, MAX_QUBITS, read_instance_json
from .rng import stream_rng, stream_rngs

DEFAULT_ANGLE_SET = tuple(k * math.pi / 8 for k in range(8))
_DEFAULT_ANGLES = np.array(DEFAULT_ANGLE_SET)

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
        if n < 1:  # before rng.integers sees a negative size
            raise InvalidParameterError("n must be >= 1")
        return IqpWeights(n, DEFAULT_ANGLE_SET, _random_weights(n, [rng])[0])

    def to_json(self) -> str:
        upper = self.w[np.triu_indices(self.n)].tolist()
        return json.dumps({"n": self.n, "angle_set": list(self.angle_set), "upper_triangle": upper})

    @staticmethod
    def from_json(text: str) -> "IqpWeights":
        data = read_instance_json(text, ("n",), ("angle_set", "upper_triangle"))
        n, upper = data["n"], data["upper_triangle"]
        if len(upper) != n * (n + 1) // 2:
            raise InvalidParameterError(f"upper_triangle must hold n(n+1)/2 = {n * (n + 1) // 2} weights")
        w = np.zeros((n, n))
        w[np.triu_indices(n)] = w.T[np.triu_indices(n)] = upper
        return IqpWeights(n=n, angle_set=tuple(data["angle_set"]), w=w)


def _random_weights(n: int, rngs) -> np.ndarray:
    """The symmetric n x n angle matrices of the streams `rngs` as a (k, n, n) stack: each stream draws
    n x n indices into DEFAULT_ANGLE_SET, and the stack's upper triangles are mirrored at once."""
    w = _DEFAULT_ANGLES[np.stack([rng.integers(0, _DEFAULT_ANGLES.size, size=(n, n)) for rng in rngs])]
    return np.triu(w) + np.triu(w, 1).swapaxes(1, 2)


class _Sweep:
    """The sweep of every ensemble (see above); a subclass supplies `seed` and `_kernel()`."""

    def instance_distribution(self, i: int) -> ProbVec:
        """Output distribution of the `i`-th member (reproducible); any i >= 0, 2^32 and beyond too."""
        return ProbVec(self._kernel()[1]([stream_rng(self.seed, i)], 1)[0])

    def distributions(self, count: int):
        """instance_distribution(i) for i = 0 ... count-1, in index order, with the same bits, a batch at a time.

        A stream is made as its instance draws (a list of a Haar n=4 batch's 1 024 streams cost ~1.8 MB of peak
        RSS), and a batch's rows are dropped before the next is built, so no yielded ProbVec is written again.
        """
        size, rows = self._kernel()
        for start in range(0, count, size):
            batch = range(start, min(start + size, count))
            probs = rows(stream_rngs(self.seed, batch), len(batch))
            yield from map(ProbVec, probs)
            del probs  # before the next batch is built


@dataclass(frozen=True)
class CircuitEnsemble(_Sweep):
    """Descriptor for a random-circuit ensemble at fixed qubit count."""

    kind: str
    n: int
    seed: int
    depth: int = 0

    def __post_init__(self):
        if self.kind not in CIRCUIT_KINDS:
            raise InvalidParameterError(f"unknown ensemble kind {self.kind!r}")
        _check_qubits(self.n)
        _check_gates(self.n, self.depth)  # so that a sweep refuses before its first instance
        if self.depth and self.kind != "local_random":
            raise InvalidParameterError("depth applies to the local_random kind only")

    @property
    def sample_space_size(self) -> int:
        return 2**self.n

    def _kernel(self):
        """The batch size and rows(streams, k) kernel of a sweep (no IqpWeights per instance).

        IQP and Haar-state instances are simulated max(1, _BATCH_ENTRIES >> n)
        at a time.  A local random circuit is a batch of its own: its gate
        sites differ per instance, so a batch would only loop over circuits,
        and batches of 16 ran the n=10, depth-60 sweep ~4% slower.
        """
        n, size = self.n, max(1, _BATCH_ENTRIES >> self.n)
        if self.kind == "iqp":
            return size, lambda streams, k: _iqp_probabilities(_random_weights(n, streams))
        if self.kind == "haar_state":
            return size, lambda streams, k: _row_probabilities(*_ginibre(streams, k, (2**n,)))
        return 1, lambda streams, k: [_local_random_probabilities(n, self.depth, rng) for rng in streams]


def _check_qubits(n: int):
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n > MAX_QUBITS:
        raise ResourceLimitError(f"n = {n} exceeds the configured maximum of {MAX_QUBITS} qubits")


def _check_gates(n: int, depth: int):
    """Refuse a negative depth, and `depth` gates of d x d entries (d = 2 at n = 1, else 4) above MAX_OUTCOMES."""
    if depth < 0:
        raise InvalidParameterError("depth must be >= 0")
    d = 2 if n == 1 else 4
    if depth * d * d > MAX_OUTCOMES:
        raise ResourceLimitError(f"{depth} gates of {d} x {d} entries exceed the cap of {MAX_OUTCOMES} entries")


# Entries of one batch of small instances in CircuitEnsemble.distributions: its real and
# imaginary arrays are 128 KiB each, so a sweep's peak memory does not grow with its instance
# count.  With 2^19-entry batches the traced peak of an IQP n=10 tail check grew from 8.7 MB at
# 200 instances to 22 MB at 800.
_BATCH_ENTRIES = 1 << 14


def fwht(a: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalized), in place on one copy of `a`."""
    return _fwht_inplace(a.copy())


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """fwht of each row (last axis) of the contiguous `a`, in place, with one half-size scratch buffer.

    The levels stop at h = the row length, so no butterfly crosses a row.  A float64
    `a` runs level 1 on its floats and every later level on its complex128
    view: a view entry is a pair of adjacent floats, and from h = 2 on the
    butterflies pair whole float pairs, so the adds are the same.
    """
    v, diff, h, size = a, np.empty(a.size // 2, dtype=a.dtype), 1, a.shape[-1]
    while h < size:
        pairs = v.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :], pairs[:, 1, :]
        d = diff.reshape(-1, h)
        np.subtract(top, bot, out=d)
        top += bot
        bot[...] = d
        h *= 2
        if v.dtype == np.float64 and h < size:
            v, diff, h, size = v.view(np.complex128), diff.view(np.complex128), 1, size // 2
    return a


def iqp_output_distribution(w: IqpWeights) -> ProbVec:
    """Exact output distribution P(S) = |<S| U_W |0^n>|^2 of a commuting-gate circuit.

    U_W is diagonal in the X basis with phases
    theta(x) = sum_{i<j} w_ij chi_i(x) chi_j(x) + sum_i w_ii chi_i(x),
    chi_i(x) = (-1)^(x_i), so the amplitudes are the Walsh-Hadamard
    transform of the phase vector exp(i theta) divided by 2^n.

    theta is built by doubling, in place in one 2^n-column array: qubits are
    placed from the last to the first, each as the new most significant bit,
    theta' = [theta + a, theta - a] with a = w_ii + sum_{j placed} w_ij chi_j.
    Row k of `acc` holds that sum for the k-th qubit not yet placed, so the
    build is O(2^n) work in O(n) numpy calls.
    """
    _check_qubits(w.n)
    return ProbVec(_iqp_probabilities(w.w[None])[0])


def _iqp_probabilities(w: np.ndarray) -> np.ndarray:
    """The output distribution of each circuit of the (k, n, n) weight stack `w`, one row each.

    The real and imaginary rows of exp(i theta) are cos(theta) and sin(theta),
    the latter written over theta; the transform is linear, so each is
    transformed alone.
    """
    theta = _phases(w)
    re = np.cos(theta)
    im = np.sin(theta, out=theta)
    _fwht_inplace(re)
    _fwht_inplace(im)
    # the 1/2^n amplitude scale is a power of two, so dropping it before normalizing is exact
    return _row_probabilities(re, im)


def _phases(w: np.ndarray) -> np.ndarray:
    """theta(x) for every x, one row per (n, n) matrix of `w`, doubled in place (see iqp_output_distribution)."""
    rev = w[:, ::-1, ::-1]  # row/column i is qubit n - 1 - i
    theta = np.zeros((len(w), 2 ** rev.shape[1]))
    acc = np.diagonal(rev, axis1=1, axis2=2)[:, :, None]
    for i in range(rev.shape[1]):
        a, acc, h = acc[:, 0], acc[:, 1:], 2**i
        np.subtract(theta[:, :h], a, out=theta[:, h : 2 * h])
        theta[:, :h] += a
        col = rev[:, i + 1 :, i, None]
        acc = np.concatenate((acc + col, acc - col), axis=2)
    return theta


def _row_probabilities(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|a|^2 / sum |a|^2 for each row a = re + i im along the last axis, written over `re`.

    |a|^2 is re^2 + im^2, squared in place in both arrays (`im` is left
    holding im^2), so nothing of the rows' size is allocated and no complex
    array is formed.  Each row is divided by its own sum, which has the bits
    of np.sum on that row alone.
    """
    np.square(re, out=re)
    re += np.square(im, out=im)
    re /= re.sum(axis=-1, keepdims=True)
    return re


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary via QR of a complex Ginibre matrix.

    The diagonal of R is rephased to positive reals, which makes the QR map
    measurable and the resulting Q exactly Haar-distributed.
    """
    _check_unitary(d)
    return _haar_from_ginibre(*_ginibre([rng], 1, (d, d)))[0]


def _check_unitary(d: int):
    """Refuse d < 1, and a d x d unitary of more than MAX_OUTCOMES entries."""
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if d * d > MAX_OUTCOMES:
        raise ResourceLimitError(f"a {d} x {d} unitary exceeds the cap of {MAX_OUTCOMES} entries")


def _ginibre(streams, k: int, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary (k, *shape) Gaussian stacks of the k `streams`; each draws its real part first."""
    re, im = np.empty((k, *shape)), np.empty((k, *shape))
    for j, rng in enumerate(streams):
        rng.standard_normal(out=re[j])
        rng.standard_normal(out=im[j])
    return re, im


def _haar_from_ginibre(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Q of the QR of (re + i im) / sqrt(2), rephased so that R's diagonal is positive.

    re and im may be stacks of d x d matrices; one np.linalg.qr call factors
    the whole stack, matrix by matrix, so each Q has the bits of its own call.
    """
    q, r = np.linalg.qr((re + 1j * im) / math.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_state_distribution(n: int, rng: np.random.Generator) -> ProbVec:
    """|<S|psi>|^2 for a Haar-random state on 2^n dimensions.

    Drawn directly as a normalized complex Gaussian vector, which has the
    same distribution as the first column of a Haar unitary.
    """
    _check_qubits(n)
    return ProbVec(_row_probabilities(*_ginibre([rng], 1, (2**n,)))[0])


def local_random_circuit_distribution(n: int, depth: int, rng: np.random.Generator) -> ProbVec:
    """Output distribution of `depth` Haar two-qubit gates on random 1-D neighbor pairs.

    Each gate's site and Ginibre matrix are drawn in the order of a gate-by-gate
    loop over haar_unitary, and the gates are then made by one stacked QR.
    At n = 1 every gate is a Haar single-qubit unitary and no site is drawn.
    Each gate, 2 x 2 or 4 x 4, is one np.matmul over the state viewed as
    (2^q, d, rest) into a second buffer, and the two swap after each gate.
    """
    _check_qubits(n)
    _check_gates(n, depth)
    return ProbVec(_local_random_probabilities(n, depth, rng))


def _local_random_probabilities(n: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """local_random_circuit_distribution(n, depth, rng) as a row of probabilities."""
    d = 2 if n == 1 else 4
    sites = np.zeros(depth, dtype=np.int64)
    re, im = np.empty((depth, d, d)), np.empty((depth, d, d))
    for k in range(depth):
        if n > 1:
            sites[k] = rng.integers(0, n - 1)  # acts on neighbors (q, q+1)
        re[k], im[k] = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    gates = _haar_from_ginibre(re, im)
    psi, out = np.zeros(2**n, dtype=np.complex128), np.empty(2**n, dtype=np.complex128)
    psi[0] = 1.0
    for gate, q in zip(gates, sites.tolist()):
        np.matmul(gate, psi.reshape(2**q, d, -1), out=out.reshape(2**q, d, -1))
        psi, out = out, psi
    del out  # so that the probability step's buffers take its place
    return _row_probabilities(psi.real, psi.imag)


# Steps up that a draw may take from its bucket's start before it falls back to a binary search, so
# a long run of zero-probability entries inside one bucket costs no more than the search does.
_REFINE = 4


def inverse_cdf(p: ProbVec):
    """p's inverse CDF: a map from uniforms in [0, 1) of any shape to int64 outcome indices.

    The index of u is np.searchsorted(cdf, u, side="right"), found through a
    guide table (Chen & Asau 1974) with the same result.  K = 2 * 2^ceil(log2 dim)
    buckets cover [0, 1), and lo[b] = #{cdf <= b/K} is kept as int32 (8 MiB at
    dim 2^20).  u*K is exact for a power-of-two K, so lo[floor(u*K)] is the
    index unless a CDF entry lies in u's bucket; such draws step up while
    cdf[r] <= u, _REFINE steps at most, and the rest take the binary search.
    """
    if not p.normalized:
        raise InvalidParameterError("sampling requires a normalized distribution")
    cdf = np.cumsum(p.entries)
    cdf[-1] = 1.0
    k = 2 << (p.dim - 1).bit_length()
    # cdf[j] <= b/k from bucket b = ceil(cdf[j] * k) on, so lo holds j from entry j - 1's first bucket
    # up to entry j's; an entry above 1 (a cumsum that rounds past 1 before the pinned last entry)
    # counts in no bucket
    reps = np.minimum(np.ceil(cdf * k), k).astype(np.int64)
    reps[1:] = np.diff(reps)
    lo = np.repeat(np.arange(p.dim, dtype=np.int32), reps)

    def outcomes(u):
        u = np.asarray(u)
        flat = u.reshape(-1)
        r = lo[(flat * k).astype(np.intp)].astype(np.int64)
        # the draws whose bucket holds a CDF entry <= u step up from the bucket's start
        todo = np.flatnonzero(cdf[r] <= flat)
        rt, ut = r[todo], flat[todo]
        up = np.ones(todo.size, dtype=bool)
        for _ in range(_REFINE):
            rt += up
            up = cdf[rt] <= ut
            if not up.any():
                break
        rt[up] = np.searchsorted(cdf, ut[up], side="right")
        r[todo] = rt
        return r.reshape(u.shape)

    return outcomes


def sample_outcomes(p: ProbVec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. outcome indices by inverse CDF from `rng`."""
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    return inverse_cdf(p)(rng.random(count))
