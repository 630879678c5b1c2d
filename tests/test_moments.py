import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from certbound import (
    BosonEnsemble,
    CircuitEnsemble,
    ProbVec,
    anti_concentration_check,
    estimate_second_moments,
    min_entropy_tail_check,
)
from certbound.errors import InvalidParameterError
from certbound.moments import MomentEstimate


def fixed_ensemble(p: ProbVec):
    return SimpleNamespace(kind="fixed", seed=0, sample_space_size=p.dim, instance_distribution=lambda i: p)


def recording_ensemble(p: ProbVec, calls: list):
    """fixed_ensemble(p) that appends each index it is asked for to `calls`."""
    return SimpleNamespace(
        kind="fixed", seed=0, sample_space_size=p.dim, instance_distribution=lambda i: calls.append(i) or p
    )


@pytest.mark.parametrize(
    "check",
    [
        lambda e: estimate_second_moments(e, 5),
        lambda e: min_entropy_tail_check(e, delta=0.5, num_instances=5),
        lambda e: anti_concentration_check(e, alpha=0.5, num_instances=5),
    ],
)
def test_each_check_sweeps_every_instance_once_in_index_order(check):
    calls = []
    check(recording_ensemble(ProbVec(np.array([0.5, 0.3, 0.2])), calls))
    assert calls == [0, 1, 2, 3, 4]


class TestEstimateSecondMoments:
    def test_fixed_distribution(self):
        p = ProbVec(np.array([0.5, 0.3, 0.2]))
        est = estimate_second_moments(fixed_ensemble(p), 10)
        assert est.sum_second_moments == pytest.approx(0.25 + 0.09 + 0.04, rel=1e-12)
        assert est.std_error == 0.0

    def test_requires_two_instances(self):
        with pytest.raises(InvalidParameterError):
            estimate_second_moments(fixed_ensemble(ProbVec.uniform(2)), 1)

    def test_haar_states_match_known_value(self):
        # sum_S E[P(S)^2] = 2/(D+1) for Haar states
        e = CircuitEnsemble(kind="haar_state", n=3, seed=7)
        est = estimate_second_moments(e, 3000)
        assert abs(est.sum_second_moments - 2.0 / 9.0) < 4 * est.std_error

    def test_iqp_below_bound(self):
        # per-outcome bound 3 * 2^-2n summed over 2^n outcomes
        n = 4
        e = CircuitEnsemble(kind="iqp", n=n, seed=11)
        est = estimate_second_moments(e, 2000)
        assert est.sum_second_moments <= 3.0 * 2.0**-n + 4 * est.std_error

    def test_cauchy_schwarz_floor(self):
        for kind, n in [("haar_state", 3), ("iqp", 3)]:
            e = CircuitEnsemble(kind=kind, n=n, seed=3)
            est = estimate_second_moments(e, 200)
            assert est.sum_second_moments >= 1.0 / 2**n - 1e-12

    def test_reproducible_and_parallel_identical(self):
        e = CircuitEnsemble(kind="haar_state", n=3, seed=9)
        a = estimate_second_moments(e, 100)
        b = estimate_second_moments(e, 100)
        assert a.sum_second_moments == b.sum_second_moments

    def test_report_carries_ensemble_seed(self):
        assert estimate_second_moments(CircuitEnsemble(kind="haar_state", n=2, seed=9), 10).seed == 9
        assert estimate_second_moments(fixed_ensemble(ProbVec.uniform(2)), 10).seed == 0

    def test_boson_ensemble_works(self):
        e = BosonEnsemble(2, 5, seed=1)
        est = estimate_second_moments(e, 50)
        assert 0 < est.sum_second_moments < 1

    def test_json(self):
        est = MomentEstimate("x", 10, 0.25, 0.01, 0)
        data = asdict(est)
        assert data["sum_second_moments"] == 0.25
        with pytest.raises(InvalidParameterError):
            MomentEstimate("x", 10, 0.25, -0.01, 0)


class TestMinEntropyTailCheck:
    def test_degenerate_uniform_ensemble(self):
        n = 4
        p = ProbVec.uniform(2**n)
        rep = min_entropy_tail_check(fixed_ensemble(p), delta=0.2, num_instances=100)
        # H_inf = n exactly; bound = (log2 delta + n) / 2 < n
        assert rep.bound_bits == pytest.approx(0.5 * (math.log2(0.2) + n), rel=1e-12)
        assert rep.violation_fraction == 0.0

    def test_delta_one_trivial(self):
        e = CircuitEnsemble(kind="haar_state", n=3, seed=2)
        rep = min_entropy_tail_check(e, delta=1.0, num_instances=100)
        assert rep.violation_fraction <= 1.0

    def test_haar_states_respect_tail_bound(self):
        e = CircuitEnsemble(kind="haar_state", n=4, seed=13)
        for delta in (0.1, 0.3):
            rep = min_entropy_tail_check(e, delta=delta, num_instances=1000)
            se = math.sqrt(delta * (1 - delta) / 1000)
            assert rep.violation_fraction <= delta + 4 * se

    def test_validation(self):
        e = CircuitEnsemble(kind="haar_state", n=2, seed=0)
        with pytest.raises(InvalidParameterError):
            min_entropy_tail_check(e, delta=0.0, num_instances=10)
        with pytest.raises(InvalidParameterError):
            min_entropy_tail_check(e, delta=0.5, num_instances=1)


class TestAntiConcentration:
    def test_point_mass_ensemble(self):
        p = ProbVec.point_mass(8, 0)
        rep = anti_concentration_check(fixed_ensemble(p), alpha=0.5, num_instances=100)
        assert rep.gamma_hat == 1.0
        assert rep.passed

    def test_haar_states_paley_zygmund(self):
        # floor = (1 - alpha)^2 (D+1) / (2 D); Porter-Thomas tail gives
        # gamma ~ exp(-alpha) which dominates it
        e = CircuitEnsemble(kind="haar_state", n=4, seed=17)
        d = 16.0
        for alpha in (0.25, 0.5, 0.75):
            rep = anti_concentration_check(e, alpha=alpha, num_instances=2000)
            assert rep.passed
            analytic = (1 - alpha) ** 2 * (d + 1) / (2 * d)
            assert rep.floor == pytest.approx(analytic, rel=0.2)

    def test_alpha_near_one_floor_vanishes(self):
        e = CircuitEnsemble(kind="haar_state", n=3, seed=19)
        rep = anti_concentration_check(e, alpha=0.99, num_instances=200)
        assert rep.floor < 0.01
        assert rep.passed

    def test_validation(self):
        e = CircuitEnsemble(kind="haar_state", n=2, seed=0)
        with pytest.raises(InvalidParameterError):
            anti_concentration_check(e, alpha=0.0, num_instances=10)
        with pytest.raises(InvalidParameterError):
            anti_concentration_check(e, alpha=0.5, num_instances=10, outcome=4)

    def test_outcome_checked_before_any_draw(self):
        calls = []
        p = ProbVec.uniform(4)
        with pytest.raises(InvalidParameterError, match="outcome index out of range"):
            anti_concentration_check(recording_ensemble(p, calls), alpha=0.5, num_instances=10, outcome=p.dim)
        assert calls == []
