"""A working identity test with calibrated thresholds, plus an empirical
sample-complexity harness.

The test statistic mirrors the decomposition that governs optimal sample
complexity: a 2/3-power-weighted chi-square term over the bulk (the support
of the truncated core at tail parameter eps/16), an excess-count term over
the removed tail, and a deviation term on the removed largest outcome.
Thresholds are set by parametric calibration under the null (the certifier
has unlimited computational power, so resampling the target is allowed).

A trial's samples are drawn by inverse CDF (`qsim.inverse_cdf`, a bucket
lookup) from sorted uniforms, so its outcome indices come out sorted and its
counts are their run lengths; no (trials x dim) count matrix is built. The
bulk term adds one term per bulk outcome, the ones not drawn at count 0, so
a trial costs O(samples + bulk size).

Trials are drawn, sorted and looked up in blocks of about _BLOCK_ENTRIES
samples, small enough to stay in cache, and reduced in chunks of at most
_CHUNK_ENTRIES entries per array, or one trial at a time where a single
trial needs more. A block may hold part of a chunk or several chunks; each
chunk's rows are counted piece by piece into its one (trials x bulk) term
array, which is summed once. np.sum adds each row of an F-ordered array of
two or more rows left to right, but a lone row pairwise, and the
statistic's bits depend on that order. So a trial alone in its chunk is
summed pairwise, and how the blocks split the trials changes no bit.

Behavior in the gap region 0 < ||P - Q||_1 <= eps is unspecified and the
tester may answer either way there.

Every adversary in `ADVERSARIES` returns a normalized distribution at l1
distance `distance` from p, or raises InvalidParameterError when p admits
none of its kind or `distance` is not in [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distvec import ProbVec, _fsum, l1_distance, truncate_tail, truncated_core
from .errors import InvalidParameterError, ResourceLimitError
from .qsim import inverse_cdf
from .rng import stream_rng

CALIBRATION_MARGIN = 0.05  # absorbs Monte-Carlo noise on top of the 2/3 target

# Entries of a (trials x max(samples, dim)) array per chunk of trials (8 MB per 8-byte array);
# bounds the (trials x bulk) term array, and decides which trials are summed alone, so the
# thresholds' bits depend on it.
_CHUNK_ENTRIES = 1 << 20

# Entries of the (trials x samples) draws per block of trials; a block's uniforms and outcome
# indices stay in cache.
_BLOCK_ENTRIES = 1 << 17

# Largest sample size a tester takes; the complexity search gives up above it.
_S_MAX = 1 << 20


@dataclass(frozen=True)
class TesterConfig:
    __test__ = False  # not a test case despite the name

    eps: float
    samples: int
    calibration_runs: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise InvalidParameterError("eps must be in (0, 1)")
        if self.samples < 1:
            raise InvalidParameterError("samples must be >= 1")
        if self.samples > _S_MAX:
            raise ResourceLimitError(f"samples must be <= {_S_MAX}")
        if self.calibration_runs < 100:
            raise InvalidParameterError("calibration_runs must be >= 100")


@dataclass(frozen=True)
class TestVerdict:
    __test__ = False  # not a test case despite the name

    accept: bool
    statistic: float
    threshold: float
    samples_used: int


class CertificationTester:
    """Calibrated identity tester for a fixed target distribution and sample size.

    `threshold` is the null quantile that calibration under `cfg.seed` sets.
    """

    def __init__(self, p: ProbVec, cfg: TesterConfig):
        if not p.normalized:
            raise InvalidParameterError("target distribution must be normalized")
        self.p = p
        self.cfg = cfg
        core = truncated_core(p, cfg.eps / 16.0)
        self.bulk = np.flatnonzero(core.entries > 0)
        self.max_index = int(np.argmax(p.entries))
        self._in_tail = np.ones(p.dim, dtype=bool)
        self._in_tail[self.bulk] = False
        self._in_tail[self.max_index] = False
        self.tail_weight = float(p.entries[self._in_tail].sum())
        # per-bulk-outcome constants of the statistic and each outcome's bulk position, with one more
        # (scratch) position, at constants that give finite terms, for every outcome off the bulk
        nb = self.bulk.size
        pb = p.entries[self.bulk]
        self._spb = np.append(float(cfg.samples) * pb, 0.0)
        self._pb23 = np.append(pb ** (2.0 / 3.0), 1.0)
        self._zero_terms = _bulk_terms(0.0, self._spb, self._pb23)
        self._bulk_pos = np.full(p.dim, nb, dtype=np.int64)
        self._bulk_pos[self.bulk] = np.arange(nb)
        self.threshold = self._calibrate()

    # -- statistics ------------------------------------------------------

    def _components(self, blocks, t: int) -> np.ndarray:
        """Raw (t, 3) statistic components of t trials, from an iterable of (trials, samples) blocks of
        outcome indices that hold the t trials in order, each row sorted."""
        s = float(self.cfg.samples)
        p = self.p.entries
        # every bulk outcome adds a term, the ones not drawn at count 0. np.sum adds each row of an
        # F-ordered (t > 1, n) array left to right and a C-ordered one pairwise; the thresholds and
        # verdicts depend on that order to the last bit, and tests pin them, so keep F order and sum
        # all t rows at once, however the blocks split them
        terms = np.empty((t, self._zero_terms.size), order="F")
        terms[:] = self._zero_terms
        flat = terms.reshape(-1, order="F")  # flat[at * t + trial] is terms[trial, at]
        tail = np.empty(t, dtype=np.int64)
        x_max = np.zeros(t)
        row = 0
        for rows in blocks:
            b, n = rows.shape
            # run lengths of the sorted rows give each (trial, outcome) pair that occurs, with its count
            new = np.empty((b, n), dtype=bool)
            new[:, 0] = True
            np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
            first = np.flatnonzero(new)
            del new
            count = np.diff(first, append=rows.size)
            outcome = rows.ravel()[first]
            trial = first // n + row
            at = self._bulk_pos[outcome]
            # outcomes off the bulk write to the last, scratch column, which the sum leaves out
            flat[at * t + trial] = _bulk_terms(count.astype(np.float64), self._spb[at], self._pb23[at])
            del at
            # integer-valued sums, exact in any order; every row starts a run
            starts = np.searchsorted(first, np.arange(0, rows.size, n))
            tail[row : row + b] = np.add.reduceat(count * self._in_tail[outcome], starts)
            at_max = outcome == self.max_index
            x_max[trial[at_max]] = count[at_max]
            row += b
        bulk = np.sum(terms[:, :-1], axis=1)
        mx = np.abs(x_max - s * p[self.max_index])
        return np.column_stack([bulk, tail - s * self.tail_weight, mx])

    def _draw_components(self, q: ProbVec, rng: np.random.Generator, trials: int) -> np.ndarray:
        """(trials, 3) components of `trials` i.i.d. sample sets drawn from q, a block of trials at a
        time, and reduced a chunk of trials at a time."""
        s, dim = self.cfg.samples, self.p.dim
        step = max(1, _CHUNK_ENTRIES // max(s, dim))
        block = max(1, _BLOCK_ENTRIES // s)
        outcomes = inverse_cdf(q)

        def draws():
            for start in range(0, trials, block):
                # the same stream as rng.random(trials * s); sorting a row only permutes one trial's draws
                u = rng.random((min(block, trials - start), s))
                u.sort(axis=1)
                rows = outcomes(u)
                del u
                yield rows

        blocks, held = draws(), np.empty((0, s), dtype=np.int64)

        def chunk(t):
            # the next t trials, as pieces of the drawn blocks
            nonlocal held
            while t:
                if not len(held):
                    held = next(blocks)
                piece, held = held[:t], held[t:]
                t -= len(piece)
                yield piece

        sizes = [min(step, trials - start) for start in range(0, trials, step)]
        return np.concatenate([self._components(chunk(t), t) for t in sizes])

    def _calibrate(self) -> float:
        """Set the per-component centers and scales; return the null quantile threshold."""
        rng = stream_rng(self.cfg.seed, 0xCA11B)
        comps = self._draw_components(self.p, rng, self.cfg.calibration_runs)
        self._centers = np.median(comps, axis=0)
        hi = np.quantile(comps, 0.9, axis=0)
        self._scales = np.where(hi > self._centers, hi - self._centers, 1.0)
        level = 2.0 / 3.0 + CALIBRATION_MARGIN
        return float(np.quantile(self._combined(comps), level))

    def _combined(self, comps: np.ndarray) -> np.ndarray:
        return np.max((comps - self._centers) / self._scales, axis=1)

    # -- public API ------------------------------------------------------

    def statistic(self, samples) -> float:
        samples = np.asarray(samples)
        if samples.dtype.kind not in "iu" or samples.ndim != 1:
            raise InvalidParameterError("samples must be a 1-D array of integer outcome indices")
        if samples.size and (samples.min() < 0 or samples.max() >= self.p.dim):
            raise InvalidParameterError("sample index out of range")
        if samples.size != self.cfg.samples:
            raise InvalidParameterError("sample count does not match the calibrated size")
        return float(self._combined(self._components([np.sort(samples.astype(np.int64))[None, :]], 1))[0])

    def test(self, samples) -> TestVerdict:
        stat = self.statistic(samples)
        return TestVerdict(
            accept=stat <= self.threshold, statistic=stat, threshold=self.threshold, samples_used=self.cfg.samples
        )

    def accept_rate(self, q: ProbVec, trials: int, stream: int) -> float:
        """Monte-Carlo acceptance rate on i.i.d. sample sets drawn from q."""
        if q.dim != self.p.dim:
            raise InvalidParameterError("dimension mismatch")
        if trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        rng = stream_rng(self.cfg.seed, 0x7E57, stream)
        return float(np.mean(self._combined(self._draw_components(q, rng, trials)) <= self.threshold))


def _bulk_terms(x, spb, pb23):
    """Bulk terms ((x - s p)^2 - x) / p^(2/3) of counts x at outcomes with s p = spb and p^(2/3) = pb23."""
    return ((x - spb) ** 2 - x) / pb23


# -- adversary library ----------------------------------------------------


def _check_distance(distance: float):
    if not 0 <= distance <= 2:
        raise InvalidParameterError("distance must be in [0, 2]")


def pairwise_shift_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Move mass between consecutive index pairs until the l1 distance is reached."""
    _check_distance(distance)
    q = p.entries.copy()
    remaining = distance / 2.0
    for i in range(0, p.dim - 1, 2):
        if remaining <= 0:
            break
        t = min(q[i], remaining)
        q[i] -= t
        q[i + 1] += t
        remaining -= t
    if remaining > 1e-12:
        raise InvalidParameterError("target distance not reachable by pairwise shifts")
    return ProbVec(q / q.sum())


def tail_deletion_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Delete distance/2 of weight from the smallest entries and give it, in proportion,
    to the entries left whole, so the l1 distance is exactly `distance`.

    `truncate_tail` zeroes the smallest entries whose weight fits; the rest
    of distance/2 comes off the smallest nonzero entry left (ties at lowest index).
    """
    _check_distance(distance)
    w = distance / 2.0
    if w >= 1.0:
        raise InvalidParameterError("cannot delete a full unit of weight")
    q = truncate_tail(p, w).entries.copy()
    remaining = w - _fsum(p.entries[q == 0])
    whole = np.flatnonzero(q)
    if remaining > 0 and whole.size:
        j = whole[np.argmin(q[whole])]
        cut = min(q[j], remaining)
        q[j] -= cut
        remaining -= cut
        whole = whole[whole != j]
    if remaining > 1e-12 or not whole.size:
        raise InvalidParameterError("target distance not reachable by tail deletion")
    kept = _fsum(q[whole])
    q[whole] *= (kept + w) / kept
    return ProbVec(q)


def max_inflation_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Add distance/2 to the largest outcome, scaling all others down."""
    _check_distance(distance)
    t = distance / 2.0
    q = p.entries.copy()
    imax = int(np.argmax(q))
    rest = q.sum() - q[imax]
    if t > rest:
        raise InvalidParameterError("target distance not reachable by max inflation")
    # a p with no weight off its max has only distance 0 to give, and comes back unchanged
    q *= (rest - t) / rest if rest else 1.0
    q[imax] = p.entries[imax] + t
    return ProbVec(q / q.sum())


ADVERSARIES = {
    "pairwise_shift": pairwise_shift_adversary,
    "tail_deletion": tail_deletion_adversary,
    "max_inflation": max_inflation_adversary,
}


def empirical_sample_complexity(
    p: ProbVec,
    adversary: ProbVec,
    cfg: TesterConfig,
    trials: int = 300,
    refine_steps: int = 3,
) -> int:
    """Smallest sample size (up to refinement granularity), doubling from `cfg.samples`, at which
    the calibrated test is simultaneously complete (accept rate >= 2/3 on the target) and sound
    (accept rate < 1/3 on the adversary), each estimated from `trials` runs.
    """
    if trials < 300:
        raise InvalidParameterError("need at least 300 trials per point")
    if l1_distance(p, adversary) <= cfg.eps:
        raise InvalidParameterError("adversary not eps-far from the target")

    def passes(s: int) -> bool:
        tester = CertificationTester(p, replace(cfg, samples=s))
        if tester.accept_rate(p, trials, stream=1) < 2.0 / 3.0:
            return False
        return tester.accept_rate(adversary, trials, stream=2) < 1.0 / 3.0

    s = cfg.samples
    while not passes(s):
        s *= 2
        if s > _S_MAX:
            raise InvalidParameterError(f"no passing sample size found below {_S_MAX}")
    lo, hi = s // 2, s
    for _ in range(refine_steps):
        if hi - lo <= 1:
            break
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
