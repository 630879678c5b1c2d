import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from certbound import (
    CertificationTester,
    ProbVec,
    TesterConfig,
    empirical_sample_complexity,
    l1_distance,
    sample_outcomes,
)
from certbound import certtest
from certbound.certtest import (
    ADVERSARIES,
    CALIBRATION_MARGIN,
    max_inflation_adversary,
    pairwise_shift_adversary,
    tail_deletion_adversary,
)
from certbound.errors import MAX_DRAWS, InvalidParameterError, ResourceLimitError
from certbound.rng import stream_rng

from conftest import normalized_targets


class TestTesterConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TesterConfig(eps=0.0, samples=10)
        with pytest.raises(InvalidParameterError):
            TesterConfig(eps=0.5, samples=0)
        with pytest.raises(InvalidParameterError):
            TesterConfig(eps=0.5, samples=10, calibration_runs=50)
        with pytest.raises(InvalidParameterError, match=r"^eps must be in \(0, 1\)$"):
            TesterConfig(eps=math.nan, samples=10)

    @pytest.mark.parametrize("seed", [1.5, "5", True])
    def test_non_integer_seed_is_refused_not_truncated(self, seed):
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            CertificationTester(ProbVec.uniform(8), TesterConfig(eps=0.5, samples=10, seed=seed))

    def test_sample_cap(self):
        assert TesterConfig(eps=0.5, samples=MAX_DRAWS).samples == MAX_DRAWS
        with pytest.raises(ResourceLimitError, match="samples"):
            TesterConfig(eps=0.5, samples=MAX_DRAWS + 1)

    def test_monte_carlo_caps(self, monkeypatch):
        # above the cap, each size is refused before a sample set is drawn, so no large run happens here
        cap = MAX_DRAWS
        assert TesterConfig(eps=0.5, samples=10, calibration_runs=cap).calibration_runs == cap
        with pytest.raises(ResourceLimitError, match="calibration_runs"):
            TesterConfig(eps=0.5, samples=10, calibration_runs=cap + 1)
        p = ProbVec.uniform(8)
        tester = CertificationTester(p, TesterConfig(eps=0.5, samples=10))

        def no_draws(*args):
            raise AssertionError("drew sample sets")

        monkeypatch.setattr(CertificationTester, "_draw_components", no_draws)
        with pytest.raises(ResourceLimitError, match="trials"):
            tester.accept_rate(p, cap + 1, stream=1)
        q = pairwise_shift_adversary(p, 1.0)
        with pytest.raises(ResourceLimitError, match="trials"):
            empirical_sample_complexity(p, q, TesterConfig(eps=0.5, samples=10), trials=cap + 1)


class TestCalibration:
    def test_threshold_reproducible(self):
        p = ProbVec.uniform(16)
        cfg = TesterConfig(eps=0.5, samples=200, seed=42)
        assert CertificationTester(p, cfg).threshold == CertificationTester(p, cfg).threshold

    def test_point_mass_degenerate(self):
        p = ProbVec.point_mass(4, 1)
        cfg = TesterConfig(eps=0.5, samples=50, seed=0)
        tester = CertificationTester(p, cfg)
        samples = np.ones(50, dtype=int)
        verdict = tester.test(samples)
        assert verdict.accept

    def test_requires_normalized_target(self):
        with pytest.raises(InvalidParameterError):
            CertificationTester(ProbVec(np.array([0.3, 0.3])), TesterConfig(eps=0.5, samples=10))


class TestIdentityTest:
    def test_verdict_fields(self):
        p = ProbVec.uniform(8)
        cfg = TesterConfig(eps=0.5, samples=100, seed=1)
        samples = sample_outcomes(p, 100, stream_rng(3))
        verdict = CertificationTester(p, cfg).test(samples)
        assert verdict.samples_used == 100
        assert verdict.accept == (verdict.statistic <= verdict.threshold)

    def test_sample_validation(self):
        p = ProbVec.uniform(4)
        cfg = TesterConfig(eps=0.5, samples=10, seed=0)
        tester = CertificationTester(p, cfg)
        with pytest.raises(InvalidParameterError):
            tester.statistic(np.array([0, 1, 2, 4, 0, 1, 2, 3, 0, 1]))
        with pytest.raises(InvalidParameterError):
            tester.statistic(np.array([0, 1, 2]))
        # neither floats nor booleans are outcome indices, even when they would truncate to valid ones
        with pytest.raises(InvalidParameterError):
            tester.statistic([0.9] * 5 + [1.7] * 5)
        with pytest.raises(InvalidParameterError):
            tester.statistic([True] * 10)
        # ten indices in a (2, 5) array are no sample set
        with pytest.raises(InvalidParameterError):
            tester.statistic(np.zeros((2, 5), dtype=int))

    def test_deterministic_given_samples(self):
        p = ProbVec.uniform(8)
        cfg = TesterConfig(eps=0.5, samples=64, seed=5)
        samples = sample_outcomes(p, 64, stream_rng(9))
        a = CertificationTester(p, cfg).test(samples)
        b = CertificationTester(p, cfg).test(samples)
        assert a.statistic == b.statistic and a.accept == b.accept

    def test_completeness_uniform_16(self):
        p = ProbVec.uniform(16)
        cfg = TesterConfig(eps=0.5, samples=200, seed=7)
        tester = CertificationTester(p, cfg)
        rate = tester.accept_rate(p, trials=500, stream=1)
        se = np.sqrt(rate * (1 - rate) / 500)
        assert rate >= 2 / 3 - 4 * se

    def test_soundness_against_point_mass(self):
        p = ProbVec.uniform(16)
        q = ProbVec.point_mass(16, 0)
        assert l1_distance(p, q) == pytest.approx(1.875)
        cfg = TesterConfig(eps=0.5, samples=200, seed=7)
        tester = CertificationTester(p, cfg)
        rate = tester.accept_rate(q, trials=500, stream=2)
        se = np.sqrt(max(rate * (1 - rate), 1 / 500) / 500)
        assert rate < 1 / 3 + 4 * se


def dense_oracle(tester, counts):
    """Reference: the statistic components of a dense (trials, dim) count matrix, with one bulk term per bulk
    outcome, as in the definition."""
    mask = np.ones(tester.p.dim, dtype=bool)
    mask[tester.bulk] = False
    mask[tester.max_index] = False
    tail_index = np.flatnonzero(mask)
    tail_weight = float(tester.p.entries[tail_index].sum())

    counts = np.atleast_2d(counts).astype(np.float64)
    s = float(tester.cfg.samples)
    p = tester.p.entries
    pb = p[tester.bulk]
    xb = counts[:, tester.bulk]
    bulk = np.sum(((xb - s * pb) ** 2 - xb) / pb ** (2.0 / 3.0), axis=1)
    tail = counts[:, tail_index].sum(axis=1) - s * tail_weight
    mx = np.abs(counts[:, tester.max_index] - s * p[tester.max_index])
    return np.column_stack([bulk, tail, mx])


def change_oracle(tester, counts):
    """Reference: the statistic components of a dense (trials, dim) count matrix in the tester's summation
    order, and the scale |B| + sum |v| of each trial's bulk sum.

    Each trial's bulk component is B, the sum of the count-0 bulk terms, plus the change terms
    v = x (x - c) w over the outcomes the trial drew, in ascending index order, with c = 1 + 2 s p, and
    w = p^(-2/3) on the bulk and 0 off it.
    """
    counts = np.atleast_2d(counts)
    s = float(tester.cfg.samples)
    p = tester.p.entries
    w = np.zeros(tester.p.dim)
    w[tester.bulk] = p[tester.bulk] ** (-2.0 / 3.0)
    b = np.sum((s * p[tester.bulk]) ** 2 * w[tester.bulk])
    bulk, scale = np.empty(len(counts)), np.empty(len(counts))
    for i, row in enumerate(counts):
        drawn = np.flatnonzero(row)
        x = row[drawn].astype(np.float64)
        v = x * (x - (1.0 + 2.0 * s * p[drawn])) * w[drawn]
        bulk[i] = b + np.add.reduceat(v, [0])[0]
        scale[i] = abs(b) + np.sum(np.abs(v))
    comps = dense_oracle(tester, counts)
    comps[:, 0] = bulk
    return comps, scale


def draw_counts(q, rng, trials, samples):
    """Reference: one (trials, samples) inverse-CDF draw by binary search, counted into a (trials, dim) matrix."""
    cdf = np.cumsum(q.entries)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random((trials, samples)), side="right")
    return np.stack([np.bincount(row, minlength=q.dim) for row in idx])


def oracle_components(tester, q, rng, trials):
    """Reference: the change oracle's components of `trials` sample sets drawn from q, checked against the
    dense oracle's to within rounding."""
    counts = draw_counts(q, rng, trials, tester.cfg.samples)
    comps, scale = change_oracle(tester, counts)
    assert np.all(np.abs(comps[:, 0] - dense_oracle(tester, counts)[:, 0]) <= 1e-12 * scale)
    return comps


def oracle_calibration(tester):
    """Reference: centers, scales and threshold from the oracle components of the calibration draw."""
    cfg = tester.cfg
    comps = oracle_components(tester, tester.p, stream_rng(cfg.seed, 0xCA11B), cfg.calibration_runs)
    centers = np.median(comps, axis=0)
    hi = np.quantile(comps, 0.9, axis=0)
    scales = np.where(hi > centers, hi - centers, 1.0)
    combined = np.max((comps - centers) / scales, axis=1)
    return centers, scales, float(np.quantile(combined, 2.0 / 3.0 + CALIBRATION_MARGIN))


def oracle_rate(tester, q, stream, trials, calibration):
    """Reference: accept_rate(q, trials, stream) from the oracle components."""
    centers, scales, threshold = calibration
    comps = oracle_components(tester, q, stream_rng(tester.cfg.seed, 0x7E57, stream), trials)
    return float(np.mean(np.max((comps - centers) / scales, axis=1) <= threshold))


def assert_calibration_bits(tester, calibration):
    centers, scales, threshold = calibration
    assert tester._centers.tobytes() == centers.tobytes()
    assert tester._scales.tobytes() == scales.tobytes()
    assert np.float64(tester.threshold).tobytes() == np.float64(threshold).tobytes()


point_masses = st.integers(1, 12).flatmap(lambda d: st.integers(0, d - 1).map(lambda i: ProbVec.point_mass(d, i).entries))

# bulks of 8 entries and more, where pairwise and left-to-right sums round differently
wide_targets = (
    st.lists(st.one_of(st.just(0.0), st.sampled_from([0.01, 0.1, 0.25]), st.floats(0.01, 1.0)), min_size=24, max_size=300)
    .map(np.array)
    .filter(lambda x: x.sum() > 0)
    .map(lambda x: x / x.sum())
)


class TestChunkedSampling:
    def test_chunks_match_one_dense_matrix(self, monkeypatch):
        # 7 trials per block; neither 103 calibration runs nor 101 trials is a multiple of 7
        monkeypatch.setattr(certtest, "_BLOCK_ENTRIES", 7 * 64)
        p = ProbVec(np.random.default_rng(4).dirichlet(np.ones(16)))
        q = pairwise_shift_adversary(p, 0.6)
        tester = CertificationTester(p, TesterConfig(eps=0.5, samples=64, calibration_runs=103, seed=8))
        calibration = oracle_calibration(tester)
        assert_calibration_bits(tester, calibration)
        for dist, stream in ((p, 1), (q, 2)):
            rate = tester.accept_rate(dist, 101, stream=stream)
            assert np.float64(rate).tobytes() == np.float64(oracle_rate(tester, dist, stream, 101, calibration)).tobytes()

    @given(
        st.one_of(normalized_targets, wide_targets, point_masses),
        st.integers(1, 300),
        st.sampled_from([1, 2, 3, None]),
        st.integers(0, 2**16),
    )
    def test_bit_identical_to_the_dense_oracle(self, x, samples, per_block, seed):
        # blocks of 1-3 trials leave a remainder of 101 and 37 trials; None keeps the default block
        p = ProbVec(x)
        q = ProbVec(np.roll(x, 1))
        with pytest.MonkeyPatch.context() as mp:
            if per_block:
                mp.setattr(certtest, "_BLOCK_ENTRIES", per_block * samples)
            tester = CertificationTester(p, TesterConfig(eps=0.5, samples=samples, calibration_runs=101, seed=seed))
            comps = tester._draw_components(p, stream_rng(seed, 0xCA11B), 101)
            assert comps.tobytes() == oracle_components(tester, p, stream_rng(seed, 0xCA11B), 101).tobytes()
            calibration = oracle_calibration(tester)
            assert_calibration_bits(tester, calibration)
            for dist, stream in ((p, 1), (q, 2)):
                rate = tester.accept_rate(dist, 37, stream=stream)
                assert np.float64(rate).tobytes() == np.float64(oracle_rate(tester, dist, stream, 37, calibration)).tobytes()
        drawn = sample_outcomes(q, samples, stream_rng(seed, 3))
        comps, _ = change_oracle(tester, np.bincount(drawn, minlength=p.dim))
        centers, scales, _ = calibration
        expected = np.max((comps - centers) / scales, axis=1)[0]
        assert np.float64(tester.statistic(drawn)).tobytes() == expected.tobytes()

    def test_one_row_remainders_match_the_dense_oracle(self):
        # blocks of 1, 2 and 3 trials and the default block split 101 trials differently, the first three with
        # a one-row block at the end; every run matches the oracle, and no output bit moves between them
        p = ProbVec(np.random.default_rng(6).dirichlet(np.ones(48)))  # a bulk wide enough to round either way
        q = tail_deletion_adversary(p, 0.6)
        cfg = TesterConfig(eps=0.5, samples=64, calibration_runs=101, seed=2)
        drawn = sample_outcomes(q, 64, stream_rng(2, 3))
        runs = []
        for per_block in (1, 2, 3, None):
            with pytest.MonkeyPatch.context() as mp:
                if per_block:
                    mp.setattr(certtest, "_BLOCK_ENTRIES", per_block * 64)
                tester = CertificationTester(p, cfg)
                assert_calibration_bits(tester, oracle_calibration(tester))
                out = [tester._draw_components(p, stream_rng(2, 0xCA11B), 101), tester._centers, tester._scales]
                out += [np.float64(v) for v in (tester.threshold, tester.statistic(drawn))]
                out += [np.float64(tester.accept_rate(dist, 101, stream=k)) for k, dist in ((1, p), (2, q))]
                runs.append([a.tobytes() for a in out])
        assert runs[1:] == runs[:1] * 3

    def test_large_samples_stay_close_to_the_definition(self):
        # s = 2^16 at dim 16: B and the change terms are ~1e10 and cancel to the statistic
        p = ProbVec(np.random.default_rng(9).dirichlet(np.ones(16)))
        tester = CertificationTester(p, TesterConfig(eps=0.5, samples=2**16, calibration_runs=100, seed=4))
        comps = tester._draw_components(p, stream_rng(4, 11), 5)
        assert comps.tobytes() == oracle_components(tester, p, stream_rng(4, 11), 5).tobytes()

    def test_memory_does_not_grow_with_calibration_runs(self):
        # aim: the tester's memory is bounded by the outcome space, not by trials x dim or trials x samples
        p = ProbVec(np.random.default_rng(7).dirichlet(np.ones(2**12)))
        peaks = []
        for runs in (300, 1200):
            tracemalloc.start()
            try:
                CertificationTester(p, TesterConfig(eps=0.5, samples=5000, calibration_runs=runs))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # what grows is the (runs, 3) components and the few copies that the median and quantiles take
        assert peaks[1] - peaks[0] < 4 * (1200 - 300) * 3 * 8
        # the draws and run lengths of one block
        assert peaks[1] < 8 * 2**20

    def test_accept_rate_needs_a_trial(self):
        p = ProbVec.uniform(4)
        tester = CertificationTester(p, TesterConfig(eps=0.5, samples=10))
        with pytest.raises(InvalidParameterError):
            tester.accept_rate(p, 0, stream=1)

    def test_accept_rate_needs_the_target_dimension(self):
        tester = CertificationTester(ProbVec.uniform(4), TesterConfig(eps=0.5, samples=10))
        with pytest.raises(InvalidParameterError, match="dimension mismatch"):
            tester.accept_rate(ProbVec.uniform(8), 300, stream=1)


def _pairwise_shift_loop(p, distance):
    """Oracle: pairwise_shift_adversary as a pair-by-pair loop."""
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


@st.composite
def _shift_cases(draw):
    """A target of 1-59 entries, about a fifth of them +-0.0, and a distance in [0, 2], often one that
    ends exactly on a partial sum of the even entries."""
    dim = draw(st.integers(1, 59))
    entry = st.one_of(st.sampled_from([0.0, -0.0]), *[st.floats(1e-3, 1.0)] * 4)
    x = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
    if not np.any(x):
        x[draw(st.integers(0, dim - 1))] = 1.0
    x = x / x.sum()
    ends = np.minimum(2 * np.cumsum(x[0 : dim - 1 : 2]), 2.0).tolist()
    distance = draw(st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 2.0, *ends])))
    return ProbVec(x), distance


class TestAdversaries:
    @given(_shift_cases())
    def test_pairwise_shift_has_the_bits_of_the_loop(self, case):
        p, distance = case
        try:
            want = _pairwise_shift_loop(p, distance)
        except InvalidParameterError as err:
            with pytest.raises(InvalidParameterError, match=str(err)):
                pairwise_shift_adversary(p, distance)
            return
        assert pairwise_shift_adversary(p, distance).entries.tobytes() == want.entries.tobytes()

    def test_pairwise_shift_distance(self):
        p = ProbVec.uniform(16)
        q = pairwise_shift_adversary(p, 0.5)
        assert l1_distance(p, q) == pytest.approx(0.5, abs=1e-12)
        assert q.normalized

    def test_tail_deletion_distance(self):
        p = ProbVec.uniform(16)
        q = tail_deletion_adversary(p, 0.5)
        assert l1_distance(p, q) >= 0.5 - 1e-9
        assert q.normalized

    def test_max_inflation_distance(self):
        rng = np.random.default_rng(3)
        x = rng.dirichlet(np.ones(16))
        p = ProbVec(x)
        q = max_inflation_adversary(p, 0.5)
        assert l1_distance(p, q) == pytest.approx(0.5, abs=1e-9)
        assert q.normalized

    def test_max_inflation_returns_a_point_mass_at_distance_0(self):
        p = ProbVec.point_mass(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = max_inflation_adversary(p, 0.0)
        assert q.entries.tobytes() == p.entries.tobytes()

    def test_unreachable_distances_rejected(self):
        p = ProbVec.point_mass(4, 0)
        with pytest.raises(InvalidParameterError):
            pairwise_shift_adversary(ProbVec(np.array([0.0, 1.0])), 0.5)
        with pytest.raises(InvalidParameterError):
            tail_deletion_adversary(p, 2.5)
        with pytest.raises(InvalidParameterError, match="cannot delete a full unit of weight"):
            tail_deletion_adversary(ProbVec.uniform(4), 2.0)
        with pytest.raises(InvalidParameterError):
            max_inflation_adversary(p, 0.5)

    @pytest.mark.parametrize("distance", [math.nan, -0.5, 2.5, math.inf])
    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_distance_outside_0_2_rejected(self, name, distance):
        with pytest.raises(InvalidParameterError, match=r"^distance must be in \[0, 2\]$"):
            ADVERSARIES[name](ProbVec.uniform(16), distance)

    def test_registry(self):
        assert set(ADVERSARIES) == {"pairwise_shift", "tail_deletion", "max_inflation"}


def _tail_deletion_cut(x: np.ndarray, distance: float) -> np.ndarray:
    """Reference: take distance/2 off the entries in ascending order (ties at lowest index), adding nothing back."""
    q = x.copy()
    remaining = distance / 2.0
    for i in np.argsort(q, kind="stable"):
        if remaining <= 0:
            break
        if q[i] == 0:
            continue
        t = min(q[i], remaining)
        q[i] -= t
        remaining -= t
    return q


class TestTailDeletionProperties:
    @given(normalized_targets, st.floats(0.0, 1.5))
    def test_cut_matches_the_loop(self, x, distance):
        try:
            out = tail_deletion_adversary(ProbVec(x), distance).entries
        except InvalidParameterError:
            # only the largest entry is left to cut, so no entry would stay whole to take the weight back
            assert distance / 2.0 >= 1.0 - x.max() - 1e-12
            return
        # entries the adversary lowered are the loop's cut; all others the loop leaves as they are
        assert np.max(np.abs(np.minimum(out, x) - _tail_deletion_cut(x, distance))) <= 1e-12

    @given(normalized_targets, st.floats(0.0, 1.5))
    def test_entries_left_whole_share_one_scale(self, x, distance):
        try:
            out = tail_deletion_adversary(ProbVec(x), distance).entries
        except InvalidParameterError:
            return
        whole = (out >= x) & (x > 0)
        assert whole.any()
        scale = out[whole] / x[whole]
        assert scale.max() - scale.min() <= 1e-12


class TestAdversaryProperties:
    @given(normalized_targets, st.floats(0.0, 1.5))
    def test_reaches_its_distance(self, x, distance):
        p = ProbVec(x)
        for name, adversary in ADVERSARIES.items():
            try:
                q = adversary(p, distance)
            except InvalidParameterError:
                continue
            assert abs(l1_distance(p, q) - distance) <= 1e-12, name
            assert q.normalized, name


class TestEmpiricalSampleComplexity:
    def test_guard_against_close_adversary(self):
        p = ProbVec.uniform(8)
        cfg = TesterConfig(eps=0.5, samples=10, seed=0)
        with pytest.raises(InvalidParameterError):
            empirical_sample_complexity(p, p, cfg)
        with pytest.raises(InvalidParameterError):
            empirical_sample_complexity(p, p, cfg, trials=100)

    def test_finds_passing_size(self):
        p = ProbVec.uniform(8)
        q = pairwise_shift_adversary(p, 1.0)
        cfg = TesterConfig(eps=0.5, samples=8, seed=0, calibration_runs=200)
        s = empirical_sample_complexity(p, q, cfg, trials=300, refine_steps=2)
        assert s >= 8
        # the returned size passes both requirements
        from dataclasses import replace

        tester = CertificationTester(p, replace(cfg, samples=s))
        assert tester.accept_rate(p, 300, stream=1) >= 2 / 3
        assert tester.accept_rate(q, 300, stream=2) < 1 / 3

    def test_a_size_failing_completeness_and_a_refinement_that_stops_at_a_gap_of_1(self, monkeypatch):
        # size 2 fails and 4 passes; refinement's first point, 3, fails completeness (accept rate 0.647 < 2/3 on
        # the target), so no soundness run is drawn there, and with lo = 3, hi = 4 it stops after 1 of its 3 steps
        runs, accept_rate = [], CertificationTester.accept_rate

        def recorded(self, q, trials, stream):
            runs.append((self.cfg.samples, stream, accept_rate(self, q, trials, stream)))
            return runs[-1][2]

        monkeypatch.setattr(CertificationTester, "accept_rate", recorded)
        cfg = TesterConfig(eps=0.3, samples=2, seed=3, calibration_runs=100)
        assert empirical_sample_complexity(ProbVec.uniform(4), ProbVec.point_mass(4), cfg, trials=300) == 4
        assert [(s, stream) for s, stream, _ in runs if s != 2] == [(4, 1), (4, 2), (3, 1)]
        assert runs[-1][2] < 2 / 3

    def test_bounded_support_independent_of_ambient_dimension(self):
        # support-2 target: measured complexity does not grow with ambient d
        cfg = TesterConfig(eps=0.5, samples=4, seed=2, calibration_runs=200)
        results = []
        for d in (4, 64):
            x = np.zeros(d)
            x[0] = x[1] = 0.5
            p = ProbVec(x)
            q_arr = x.copy()
            q_arr[0], q_arr[1] = 0.875, 0.125
            q = ProbVec(q_arr)
            results.append(empirical_sample_complexity(p, q, cfg, trials=300, refine_steps=2))
        assert results[1] <= 4 * results[0]
