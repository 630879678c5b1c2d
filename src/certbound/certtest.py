"""A working identity test with calibrated thresholds, plus an empirical
sample-complexity harness.

The test statistic mirrors the decomposition that governs optimal sample
complexity: a 2/3-power-weighted chi-square term over the bulk (the support
of the truncated core at tail parameter eps/16), an excess-count term over
the removed tail, and a deviation term on the removed largest outcome.
Thresholds are set by parametric calibration under the null (the certifier
has unlimited computational power, so resampling the target is allowed).

Behavior in the gap region 0 < ||P - Q||_1 <= eps is unspecified and the
tester may answer either way there.

Every adversary in `ADVERSARIES` returns a normalized distribution at l1
distance `distance` from p, or raises InvalidParameterError when p admits
none of its kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distvec import ProbVec, l1_distance, truncate_tail, truncated_core
from .errors import InvalidParameterError
from .qsim import sample_outcomes
from .rng import stream_rng

CALIBRATION_MARGIN = 0.05  # absorbs Monte-Carlo noise on top of the 2/3 target

# Entries of the (trials x samples) draw and of the (trials x dim) count matrix
# per chunk of trials (8 MB per int64 array); bounds the tester's peak memory.
_CHUNK_ENTRIES = 1 << 20

# Largest sample size the complexity search tries before giving up.
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
        mask = np.ones(p.dim, dtype=bool)
        mask[self.bulk] = False
        mask[self.max_index] = False
        self.tail = np.flatnonzero(mask)
        self.tail_weight = float(p.entries[self.tail].sum())
        self.threshold = self._calibrate()

    # -- statistics ------------------------------------------------------

    def _components(self, counts: np.ndarray) -> np.ndarray:
        """Raw statistic components for a (trials, dim) count matrix."""
        counts = np.atleast_2d(counts).astype(np.float64)
        s = float(self.cfg.samples)
        p = self.p.entries
        pb = p[self.bulk]
        xb = counts[:, self.bulk]
        bulk = np.sum(((xb - s * pb) ** 2 - xb) / pb ** (2.0 / 3.0), axis=1)
        tail = counts[:, self.tail].sum(axis=1) - s * self.tail_weight
        mx = np.abs(counts[:, self.max_index] - s * p[self.max_index])
        return np.column_stack([bulk, tail, mx])

    def _draw_components(self, q: ProbVec, rng: np.random.Generator, trials: int) -> np.ndarray:
        """(trials, 3) components of `trials` i.i.d. sample sets drawn from q, a chunk of trials at a time."""
        s, dim = self.cfg.samples, self.p.dim
        step = max(1, _CHUNK_ENTRIES // max(s, dim))
        parts = []
        for start in range(0, trials, step):
            t = min(step, trials - start)
            idx = sample_outcomes(q, t * s, rng).reshape(t, s)
            flat = (idx + np.arange(t)[:, None] * dim).ravel()
            parts.append(self._components(np.bincount(flat, minlength=t * dim).reshape(t, dim)))
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
        if samples.dtype.kind not in "iu":
            raise InvalidParameterError("samples must be integer outcome indices")
        if samples.size and (samples.min() < 0 or samples.max() >= self.p.dim):
            raise InvalidParameterError("sample index out of range")
        if samples.size != self.cfg.samples:
            raise InvalidParameterError("sample count does not match the calibrated size")
        counts = np.bincount(samples.astype(np.int64), minlength=self.p.dim)
        return float(self._combined(self._components(counts))[0])

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


# -- adversary library ----------------------------------------------------


def pairwise_shift_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Move mass between consecutive index pairs until the l1 distance is reached."""
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
    w = distance / 2.0
    if w >= 1.0:
        raise InvalidParameterError("cannot delete a full unit of weight")
    q = truncate_tail(p, w).entries.copy()
    remaining = w - math.fsum(p.entries[q == 0].tolist())
    whole = np.flatnonzero(q)
    if remaining > 0 and whole.size:
        j = whole[np.argmin(q[whole])]
        cut = min(q[j], remaining)
        q[j] -= cut
        remaining -= cut
        whole = whole[whole != j]
    if remaining > 1e-12 or not whole.size:
        raise InvalidParameterError("target distance not reachable by tail deletion")
    kept = math.fsum(q[whole].tolist())
    q[whole] *= (kept + w) / kept
    return ProbVec(q)


def max_inflation_adversary(p: ProbVec, distance: float) -> ProbVec:
    """Add distance/2 to the largest outcome, scaling all others down."""
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
    s_start: int = 8,
    refine_steps: int = 3,
) -> int:
    """Smallest sample size (up to refinement granularity) at which the calibrated
    test is simultaneously complete (accept rate >= 2/3 on the target) and sound
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

    s = s_start
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
