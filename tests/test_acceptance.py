"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (run with `pytest tests/test_acceptance.py -s`).

Every expected value is recomputed here from an independent transcription of
the governing formula or from a brute-force oracle, never from the library
code under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from certbound import (
    BosonInstance,
    CertificationTester,
    CircuitEnsemble,
    IqpWeights,
    ModeOccupation,
    ProbVec,
    boson_distribution,
    empirical_sample_complexity,
    gaussian_concentration_bound,
    gaussian_repeated_sample,
    haar_state_distribution,
    iqp_output_distribution,
    l1_distance,
    lp_quasinorm,
    min_entropy,
    min_entropy_tail_check,
    norm23_bounds,
    permanent,
    renyi_entropy,
    smin_boson,
    smin_design,
    smin_iqp,
    truncated_core,
    vv_lower_bound,
)
from certbound.boson import enumerate_phi, submatrix
from certbound.certtest import (
    TesterConfig,
    max_inflation_adversary,
    pairwise_shift_adversary,
    tail_deletion_adversary,
)
from certbound.rng import stream_rng

from conftest import corpus


def report(num: int, name: str, ok: bool):
    print(f"\nacceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_quasinorm_sandwich():
    vecs = corpus(1000, seed=101, dims=(4, 16, 64, 256, 1024, 4096))
    ok = True
    for v in vecs:
        for eps in (0.0, 0.05, 0.2):
            lo, hi = norm23_bounds(v, eps)
            true = lp_quasinorm(truncated_core(v, eps), 2.0 / 3.0)
            ok &= lo <= true + 1e-9 and true <= hi + 1e-9
    for d in (4, 64, 1024):
        lo, hi = norm23_bounds(ProbVec.uniform(d), 0.0)
        true = lp_quasinorm(truncated_core(ProbVec.uniform(d), 0.0), 2.0 / 3.0)
        ok &= abs(lo - true) <= 1e-9 and abs(hi - true) <= 1e-9
    report(1, "entropy sandwich on truncated 2/3 quasi-norm", ok)


def test_02_entropy_order_equivalence():
    vecs = corpus(1000, seed=101, dims=(4, 16, 64, 256, 1024, 4096))
    ok = True
    for v in vecs:
        h_inf = min_entropy(v)
        for alpha in (1.5, 2, 4, 8):
            h_a = renyi_entropy(v, alpha)
            ok &= h_a >= h_inf - 1e-10
            ok &= h_inf >= (alpha - 1) / alpha * h_a - 1e-10
    report(2, "order-alpha entropies sandwich the min-entropy", ok)


def test_03_permanent_oracle_equivalence():
    rng = stream_rng(103)
    ok = True
    for i in range(200):
        n = 1 + i % 7
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = permanent(x, "ryser")
        b = permanent(x, "naive")
        ok &= abs(a - b) <= 1e-10 * max(abs(b), 1.0)
    report(3, "inclusion-exclusion permanent matches the permutation sum", ok)


def test_04_boson_normalization():
    rng = stream_rng(104)
    ok = True
    for i in range(50):
        n = 1 + i % 3
        m = 4 + i % 5
        p, _ = boson_distribution(BosonInstance.haar(n, m, rng))
        ok &= abs(p.sum() - 1.0) <= 1e-8
    report(4, "photon-number distributions sum to one", ok)


def test_05_haar_state_second_moment():
    rng = stream_rng(105)
    ok = True
    for n in (2, 3, 4):
        d = 2**n
        vals = np.empty(10**4)
        for i in range(vals.size):
            e = haar_state_distribution(n, rng).entries
            vals[i] = math.fsum((e**2).tolist())
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        ok &= abs(vals.mean() - 2.0 / (d + 1)) <= 4 * se
    report(5, "random-state collision probability matches 2/(D+1)", ok)


def test_06_iqp_second_moment_bound():
    rng = stream_rng(106)
    ok = True
    for n in (3, 4, 5):
        vals = np.empty(10**4)
        for i in range(vals.size):
            w = IqpWeights.random(n, rng)
            vals[i] = iqp_output_distribution(w).entries[0] ** 2
        mean = vals.mean()
        rel_se = vals.std(ddof=1) / math.sqrt(vals.size) / mean
        ok &= 2**n * mean <= 3.0 * 2.0**-n * (1 + 4 * rel_se)
    report(6, "commuting-circuit fourth moment below 3/4^n", ok)


def test_07_min_entropy_tail_bound():
    ok = True
    for kind in ("haar_state", "iqp"):
        e = CircuitEnsemble(kind=kind, n=4, seed=107)
        for delta in (0.1, 0.3):
            rep = min_entropy_tail_check(e, delta=delta, num_instances=5000)
            se = math.sqrt(delta * (1 - delta) / 5000)
            ok &= rep.violation_fraction <= delta + 4 * se
    report(7, "min-entropy rarely falls below the second-moment bound", ok)


def test_08_collision_free_weight():
    rng = stream_rng(108)
    ok = True
    for n, m in ((2, 20), (3, 40)):
        vals = np.empty(500)
        colliding = [occ for occ in enumerate_phi(m, n) if not occ.collision_free]
        for i in range(vals.size):
            inst = BosonInstance.haar(n, m, rng)
            total = 0.0
            for occ in colliding:
                denom = 1.0
                for sj in occ.s:
                    denom *= math.factorial(sj)
                total += abs(permanent(submatrix(inst, occ))) ** 2 / denom
            vals[i] = total
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        ok &= vals.mean() <= 2.0 * n * n / m + 4 * se
    report(8, "colliding-outcome weight below 2 n^2 / m", ok)


def test_09_gaussian_concentration():
    # the erfc expression with exponent n^2 is exactly the tail of the max
    # over the n^2 per-entry real components (the complex modulus needs the
    # exp(-xi^2 / (2 sigma^2)) variant instead); repeated rows only lower
    # the max's tail
    rng = stream_rng(109)
    n, m = 3, 9
    sigma = 1.0 / math.sqrt(m)
    trials = 10**4
    ok = True
    for s in ((1, 1, 1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0, 0, 0)):
        occ = ModeOccupation(s)
        maxima = np.empty(trials)
        for i in range(trials):
            x = gaussian_repeated_sample(occ, n, sigma, rng)
            maxima[i] = np.abs(x.real).max()
        for xi in (sigma, 2 * sigma, 3 * sigma):
            frac = float(np.mean(maxima >= xi))
            se = math.sqrt(max(frac * (1 - frac), 1.0 / trials) / trials)
            ok &= frac <= gaussian_concentration_bound(n, sigma, xi) + 4 * se
    report(9, "largest Gaussian entry obeys the erfc tail bound", ok)


def _iqp_target(n: int) -> ProbVec:
    return iqp_output_distribution(IqpWeights.random(n, stream_rng(1010)))


def _boson_target(n: int, m: int) -> ProbVec:
    return boson_distribution(BosonInstance.haar(n, m, stream_rng(1011)))[0]


def test_10_tester_completeness_and_soundness():
    targets = {
        "uniform-16": (ProbVec.uniform(16), 400),
        "iqp-4": (_iqp_target(4), 400),
        "boson-2-6": (_boson_target(2, 6), 400),
    }
    adversaries = (pairwise_shift_adversary, tail_deletion_adversary, max_inflation_adversary)
    trials = 500
    ok = True
    for name, (p, s) in targets.items():
        cfg = TesterConfig(eps=0.5, samples=s, seed=1012)
        tester = CertificationTester(p, cfg)
        comp = tester.accept_rate(p, trials, stream=1)
        se_c = math.sqrt(max(comp * (1 - comp), 1.0 / trials) / trials)
        ok &= comp >= 2.0 / 3.0 - 4 * se_c
        for k, adv in enumerate(adversaries):
            q = adv(p, 0.6)
            assert l1_distance(p, q) > 0.5
            snd = tester.accept_rate(q, trials, stream=3 + k)
            se_s = math.sqrt(max(snd * (1 - snd), 1.0 / trials) / trials)
            ok &= snd < 1.0 / 3.0 + 4 * se_s
    report(10, "calibrated tester is complete and sound at eps = 0.5", ok)


def test_11_sample_complexity_scaling():
    eps = 0.25
    results = []
    for d in (16, 64, 256):
        p = ProbVec.uniform(d)
        q = np.full(d, 1.0 / d)
        q[0::2] -= 0.3 / d  # l1 distance 0.3 > eps, spread over all pairs
        q[1::2] += 0.3 / d
        adversary = ProbVec(q)
        cfg = TesterConfig(eps=eps, samples=8, seed=1013)
        results.append(
            empirical_sample_complexity(p, adversary, cfg, trials=300, refine_steps=4)
        )
    ok = results[0] <= results[1] <= results[2] and results[2] / results[0] >= 2.5
    print(f"\nmeasured sample sizes for d = 16, 64, 256: {results}")
    report(11, "measured sample complexity grows like sqrt(dim)", ok)


def test_12_bound_formula_cross_check():
    ok = True

    val = vv_lower_bound(ProbVec.uniform(1024), 0.1).value
    expect = (1.0 / 0.1**2) * (819.0 * (1.0 / 1024.0) ** (2.0 / 3.0)) ** 1.5
    ok &= abs(val - expect) <= 1e-6 * expect

    h = 0.5 * (20 + math.log2(0.3 / 3.0))
    expect = (1.0 / 0.01) * 2.0 ** (h / 2.0) * (1.0 - 0.2 - 2.0**-h) ** 1.5
    val = smin_iqp(20, 0.3, 0.1).value
    ok &= abs(val - expect) <= 1e-6 * expect

    h = 0.5 * (20 + math.log2(0.3 / 2.2))
    expect = (1.0 / 0.01) * 2.0 ** (h / 2.0) * (1.0 - 0.2 - 2.0**-h) ** 1.5
    val = smin_design(20, 0.3, 0.1, eps_tilde=0.1).value
    ok &= abs(val - expect) <= 1e-6 * expect

    n, m, delta, eps, zeta = 4, 1024, 0.5, 0.05, 0.25
    inner = math.factorial(n) * (n + 1) / m**n
    h = 0.5 * (2 * math.log2(1 - zeta) + math.log2(delta) - math.log2(inner))
    expect = max(1.0 / eps, (1 - zeta) * 2.0 ** (h / 2.0) * (1 - zeta - 2 * eps) ** 1.5 / eps**2)
    val = smin_boson(n, m, delta, eps, zeta).value
    ok &= abs(val - expect) <= 1e-6 * expect

    report(12, "closed-form bounds match independent transcriptions", ok)
