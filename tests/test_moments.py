import math
import tracemalloc
import weakref
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
from certbound.errors import MAX_DRAWS, InvalidParameterError, ResourceLimitError
from certbound.moments import MomentEstimate


def mapped_ensemble(dim: int, instance_distribution):
    """An ensemble of `dim` outcomes whose distributions(count) maps instance_distribution over 0 ... count-1."""
    return SimpleNamespace(
        kind="fixed",
        seed=0,
        sample_space_size=dim,
        instance_distribution=instance_distribution,
        distributions=lambda count: map(instance_distribution, range(count)),
    )


def fixed_ensemble(p: ProbVec):
    return mapped_ensemble(p.dim, lambda i: p)


def recording_ensemble(p: ProbVec, calls: list):
    """fixed_ensemble(p) that appends each index it is asked for to `calls`."""
    return mapped_ensemble(p.dim, lambda i: calls.append(i) or p)


CHECKS = [
    lambda e: estimate_second_moments(e, 5),
    lambda e: min_entropy_tail_check(e, delta=0.5, num_instances=5),
    lambda e: anti_concentration_check(e, alpha=0.5, num_instances=5),
]


@pytest.mark.parametrize("check", CHECKS)
def test_each_check_sweeps_every_instance_once_in_index_order(check):
    calls = []
    check(recording_ensemble(ProbVec(np.array([0.5, 0.3, 0.2])), calls))
    assert calls == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("check", CHECKS)
def test_each_check_releases_instance_before_building_the_next(check):
    built, kept = [], []

    def instance_distribution(i):
        if built and built[-1]() is not None:
            kept.append(i - 1)
        p = ProbVec.uniform(4)
        built.append(weakref.ref(p))
        return p

    check(mapped_ensemble(4, instance_distribution))
    assert len(built) == 5 and kept == []


@pytest.mark.parametrize(
    "ensemble",
    [
        CircuitEnsemble(kind="iqp", n=3, seed=1),
        CircuitEnsemble(kind="haar_state", n=3, seed=1),
        CircuitEnsemble(kind="local_random", n=3, seed=1, depth=4),
        BosonEnsemble(2, 4, seed=1),
    ],
    ids=lambda e: e.kind,
)
def test_distributions_keep_no_yielded_instance(ensemble):
    it = ensemble.distributions(3)
    p = next(it)
    ref = weakref.ref(p)
    del p
    assert ref() is None
    assert len(list(it)) == 2


def test_tail_check_peak_memory_does_not_grow_with_instances():
    # instances are simulated in fixed-size batches, so only the list of per-instance results grows:
    # less than one batch's 256 KiB complex buffer from 200 to 800 instances
    def traced_peak(num_instances):
        tracemalloc.start()
        try:
            min_entropy_tail_check(CircuitEnsemble(kind="iqp", n=10, seed=3), delta=0.2, num_instances=num_instances)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(20)  # lazy set-up outside the measured calls
    assert traced_peak(800) - traced_peak(200) < 2**18


def test_boson_peak_memory_does_not_grow_with_instances():
    # at (1, 100) the m^2 unitary entries, not the n |Phi| index entries, set the batch: 6 instances of 10 100
    # entries; a batch sized by n |Phi| alone would stack 655 unitaries of 160 KB, all 50 or all 200 of these
    def traced_peak(num_instances):
        tracemalloc.start()
        try:
            estimate_second_moments(BosonEnsemble(1, 100, seed=3), num_instances)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(3)  # lazy set-up outside the measured calls
    assert traced_peak(200) - traced_peak(50) < 2**18


@pytest.mark.parametrize(
    "check",
    [
        lambda e, count: estimate_second_moments(e, count),
        lambda e, count: min_entropy_tail_check(e, delta=0.5, num_instances=count),
        lambda e, count: anti_concentration_check(e, alpha=0.5, num_instances=count),
    ],
)
def test_instance_cap_is_checked_before_any_draw(check):
    calls = []
    ensemble = recording_ensemble(ProbVec.uniform(4), calls)
    asked = []
    ensemble.distributions = lambda count: asked.append(count) or map(ensemble.instance_distribution, range(count))
    with pytest.raises(ResourceLimitError, match="instances"):
        check(ensemble, MAX_DRAWS + 1)
    assert calls == [] and asked == []
    check(ensemble, 3)  # the same ensemble sweeps once the count is in range
    assert calls == [0, 1, 2] and asked == [3]


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
        est = estimate_second_moments(CircuitEnsemble(kind="haar_state", n=2, seed=9), 10)
        assert est.seed == 9 and est.ensemble == "haar_state"  # the ensemble's kind, not a CLI name
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

    def test_std_error_and_seed(self):
        rep = min_entropy_tail_check(CircuitEnsemble(kind="haar_state", n=2, seed=13), delta=1.0, num_instances=400)
        f = rep.violation_fraction
        assert 0 < f < 1 and rep.seed == 13
        assert rep.std_error == math.sqrt(f * (1 - f) / 400)
        # no violation: the SE is floored at that of one in N
        rep = min_entropy_tail_check(fixed_ensemble(ProbVec.uniform(16)), delta=0.2, num_instances=100)
        assert rep.violation_fraction == 0.0 and rep.std_error == pytest.approx(0.01, rel=1e-15)

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
        # outcome 0 is the one tested, and here it never occurs
        rep = anti_concentration_check(fixed_ensemble(ProbVec.point_mass(8, 1)), alpha=0.5, num_instances=100)
        assert rep.outcome == 0 and rep.gamma_hat == 0.0

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

    def test_std_error_and_seed(self):
        rep = anti_concentration_check(CircuitEnsemble(kind="haar_state", n=4, seed=17), alpha=0.5, num_instances=400)
        g = rep.gamma_hat
        assert 0 < g < 1 and rep.seed == 17
        assert rep.std_error == math.sqrt(g * (1 - g) / 400)
        rep = anti_concentration_check(fixed_ensemble(ProbVec.point_mass(8, 0)), alpha=0.5, num_instances=100)
        assert rep.gamma_hat == 1.0 and rep.std_error == pytest.approx(0.01, rel=1e-15) and rep.seed == 0

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
            anti_concentration_check(e, alpha=1.0, num_instances=10)
