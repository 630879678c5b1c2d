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
from certbound.errors import InvalidParameterError
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


def dense_components(tester, q, rng, trials):
    """Reference: one (trials, samples) inverse-CDF draw and one dense (trials, dim) count matrix."""
    cdf = np.cumsum(q.entries)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random((trials, tester.cfg.samples)), side="right")
    counts = np.stack([np.bincount(row, minlength=q.dim) for row in idx])
    return tester._components(counts)


class TestChunkedSampling:
    def test_chunks_match_one_dense_matrix(self, monkeypatch):
        # 7 trials per chunk; neither 103 calibration runs nor 101 trials is a multiple of 7
        monkeypatch.setattr(certtest, "_CHUNK_ENTRIES", 7 * 64)
        p = ProbVec(np.random.default_rng(4).dirichlet(np.ones(16)))
        q = pairwise_shift_adversary(p, 0.6)
        cfg = TesterConfig(eps=0.5, samples=64, calibration_runs=103, seed=8)
        tester = CertificationTester(p, cfg)

        comps = dense_components(tester, p, stream_rng(cfg.seed, 0xCA11B), cfg.calibration_runs)
        centers = np.median(comps, axis=0)
        hi = np.quantile(comps, 0.9, axis=0)
        scales = np.where(hi > centers, hi - centers, 1.0)
        combined = np.max((comps - centers) / scales, axis=1)
        threshold = float(np.quantile(combined, 2.0 / 3.0 + CALIBRATION_MARGIN))
        assert np.array_equal(tester._centers, centers) and np.array_equal(tester._scales, scales)
        assert tester.threshold == threshold

        for dist, stream in ((p, 1), (q, 2)):
            comps = dense_components(tester, dist, stream_rng(cfg.seed, 0x7E57, stream), 101)
            rate = float(np.mean(np.max((comps - centers) / scales, axis=1) <= threshold))
            assert tester.accept_rate(dist, 101, stream=stream) == rate

    def test_accept_rate_needs_a_trial(self):
        p = ProbVec.uniform(4)
        tester = CertificationTester(p, TesterConfig(eps=0.5, samples=10))
        with pytest.raises(InvalidParameterError):
            tester.accept_rate(p, 0, stream=1)


class TestAdversaries:
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
        with pytest.raises(InvalidParameterError):
            max_inflation_adversary(p, 0.5)

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
        cfg = TesterConfig(eps=0.5, samples=10, seed=0, calibration_runs=200)
        s = empirical_sample_complexity(p, q, cfg, trials=300, s_start=8, refine_steps=2)
        assert s >= 8
        # the returned size passes both requirements
        from dataclasses import replace

        tester = CertificationTester(p, replace(cfg, samples=s))
        assert tester.accept_rate(p, 300, stream=1) >= 2 / 3
        assert tester.accept_rate(q, 300, stream=2) < 1 / 3

    def test_bounded_support_independent_of_ambient_dimension(self):
        # support-2 target: measured complexity does not grow with ambient d
        cfg = TesterConfig(eps=0.5, samples=10, seed=2, calibration_runs=200)
        results = []
        for d in (4, 64):
            x = np.zeros(d)
            x[0] = x[1] = 0.5
            p = ProbVec(x)
            q_arr = x.copy()
            q_arr[0], q_arr[1] = 0.875, 0.125
            q = ProbVec(q_arr)
            results.append(empirical_sample_complexity(p, q, cfg, trials=300, s_start=4, refine_steps=2))
        assert results[1] <= 4 * results[0]
