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
bulk term is written as ((x - s p)^2 - x) / p^(2/3) =
(s p)^2 / p^(2/3) + x (x - 1 - 2 s p) p^(-2/3): one per-tester constant B,
the sum of the count-0 terms, plus a change term for each distinct outcome a
trial drew, which is 0 off the bulk. So a trial costs O(samples), whatever
the bulk size.

Trials are drawn, sorted, looked up and scored in blocks of about
_BLOCK_ENTRIES samples, small enough to stay in cache. Each trial's change
terms are summed in ascending outcome order as one np.add.reduceat segment
and added to B, so no bit of a statistic depends on how the blocks split
the trials.

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
from .errors import MAX_DRAWS, InvalidParameterError, check_draws, check_real
from .qsim import inverse_cdf
from .rng import stream_rng

CALIBRATION_MARGIN = 0.05  # absorbs Monte-Carlo noise on top of the 2/3 target

# Entries of the (trials x samples) draws per block of trials; a block's uniforms and outcome
# indices stay in cache.
_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class TesterConfig:
    __test__ = False  # not a test case despite the name

    eps: float
    samples: int
    calibration_runs: int = 300
    seed: int = 0

    def __post_init__(self):
        check_real("eps", self.eps, 0, 1, "()")
        check_draws("samples", self.samples)
        check_draws("calibration_runs", self.calibration_runs, 100)


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
        # the bulk term's weight p^(-2/3) per outcome, 0 off the bulk, and its value B at count 0
        self._w = np.zeros(p.dim)
        self._w[self.bulk] = p.entries[self.bulk] ** (-2.0 / 3.0)
        self._b = np.sum((cfg.samples * p.entries[self.bulk]) ** 2 * self._w[self.bulk])
        self.threshold = self._calibrate()

    # -- statistics ------------------------------------------------------

    def _components(self, rows: np.ndarray) -> np.ndarray:
        """Raw (trials, 3) statistic components of a (trials, samples) block of outcome indices, each
        row sorted."""
        n = rows.shape[1]
        s = float(self.cfg.samples)
        p = self.p.entries
        # run lengths of the sorted rows give each (trial, outcome) pair that occurs, with its count
        new = np.empty(rows.shape, dtype=bool)
        new[:, 0] = True
        np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
        first = np.flatnonzero(new)
        del new
        count = np.diff(first, append=rows.size)
        outcome = rows.ravel()[first]
        # every row starts a run, so a trial's runs are one reduceat segment
        starts = np.searchsorted(first, np.arange(0, rows.size, n))
        x = count.astype(np.float64)
        change = x * (x - (1.0 + 2.0 * s * p[outcome])) * self._w[outcome]
        bulk = self._b + np.add.reduceat(change, starts)
        # integer-valued sums, exact in any order
        tail = np.add.reduceat(count * self._in_tail[outcome], starts)
        x_max = np.zeros(rows.shape[0])
        at_max = outcome == self.max_index
        x_max[first[at_max] // n] = count[at_max]
        mx = np.abs(x_max - s * p[self.max_index])
        return np.column_stack([bulk, tail - s * self.tail_weight, mx])

    def _draw_components(self, q: ProbVec, rng: np.random.Generator, trials: int) -> np.ndarray:
        """(trials, 3) components of `trials` i.i.d. sample sets drawn from q, a block of trials at a
        time."""
        s = self.cfg.samples
        block = max(1, _BLOCK_ENTRIES // s)
        outcomes = inverse_cdf(q)
        parts = []
        for start in range(0, trials, block):
            # the same stream as rng.random(trials * s); sorting a row only permutes one trial's draws
            u = rng.random((min(block, trials - start), s))
            u.sort(axis=1)
            parts.append(self._components(outcomes(u)))
        return np.concatenate(parts)

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
        return float(self._combined(self._components(np.sort(samples.astype(np.int64))[None, :]))[0])

    def test(self, samples) -> TestVerdict:
        stat = self.statistic(samples)
        return TestVerdict(
            accept=stat <= self.threshold, statistic=stat, threshold=self.threshold, samples_used=self.cfg.samples
        )

    def accept_rate(self, q: ProbVec, trials: int, stream: int) -> float:
        """Monte-Carlo acceptance rate on i.i.d. sample sets drawn from q."""
        if q.dim != self.p.dim:
            raise InvalidParameterError("dimension mismatch")
        check_draws("trials", trials)
        rng = stream_rng(self.cfg.seed, 0x7E57, stream)
        return float(np.mean(self._combined(self._draw_components(q, rng, trials)) <= self.threshold))


# -- adversary library ----------------------------------------------------


def pairwise_shift_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Move mass between consecutive index pairs until the l1 distance is reached.

    Pair (2k, 2k+1) moves all of entry 2k while that entry is below the mass
    still to move, the first pair whose even entry is not moves the rest, and
    no later entry is touched.  The mass still to move before each pair is one
    cumsum of [distance/2, -q[0], -q[2], ...], so it has the bits of
    subtracting pair by pair.
    """
    check_real("distance", distance, 0, 2)
    q = p.entries.copy()
    even = q[0 : p.dim - 1 : 2]  # the entries that have a partner
    rest = np.cumsum(np.concatenate(([distance / 2.0], -even)))
    k = int(np.argmax(np.append(even >= rest[:-1], True)))  # the pairs that move whole
    t = even[:k].copy()
    even[:k] -= t
    q[1 : 2 * k : 2] += t
    remaining = rest[k]
    if remaining > 0 and k < even.size:
        q[2 * k] -= remaining
        q[2 * k + 1] += remaining
        remaining = 0.0
    if remaining > 1e-12:
        raise InvalidParameterError("target distance not reachable by pairwise shifts")
    return ProbVec(q / q.sum())


def tail_deletion_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Delete distance/2 of weight from the smallest entries and give it, in proportion,
    to the entries left whole, so the l1 distance is exactly `distance`.

    `truncate_tail` zeroes the smallest entries whose weight fits; the rest
    of distance/2 comes off the smallest nonzero entry left (ties at lowest index).
    """
    check_real("distance", distance, 0, 2)
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
    check_real("distance", distance, 0, 2)
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
    check_draws("trials", trials, 300)
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
        if s > MAX_DRAWS:
            raise InvalidParameterError(f"no passing sample size found below {MAX_DRAWS}")
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
