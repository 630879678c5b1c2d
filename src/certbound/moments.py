"""Monte-Carlo second-moment estimation and the min-entropy / anti-concentration checks.

An ensemble (qsim.CircuitEnsemble, boson.BosonEnsemble) is an object with
- `instance_distribution(i) -> ProbVec`, the output distribution of instance i;
- `kind`, its name, and `seed`, the seed that drives it;
- `sample_space_size`, the number of outcomes of every instance.

Each check sweeps instances 0 ... N-1 once, in index order, and instance i
always uses RNG stream (seed, i), so estimates are bit-for-bit reproducible
from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distvec import ProbVec, min_entropy
from .errors import InvalidParameterError


def _sweep(ensemble, num_instances: int, stat) -> np.ndarray:
    """stat(distribution of instance i) for i = 0 ... num_instances-1, in index order."""
    if num_instances < 2:
        raise InvalidParameterError("need at least 2 instances")
    return np.array([stat(ensemble.instance_distribution(i)) for i in range(num_instances)])


def _collision(p: ProbVec) -> float:
    """sum_S P(S)^2 (= 2^-H2)."""
    return math.fsum((p.entries**2).tolist())


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo estimate of sum_S E[P(S)^2] over an ensemble."""

    ensemble: str
    num_instances: int
    sum_second_moments: float
    std_error: float
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise InvalidParameterError("std_error must be >= 0")


def estimate_second_moments(ensemble, num_instances: int, name: str = "") -> MomentEstimate:
    """Average of sum_S P(S)^2 over `num_instances` fresh instances.

    The report is named `name`, or the ensemble's kind, and carries the ensemble's seed.
    """
    collisions = _sweep(ensemble, num_instances, _collision)
    return MomentEstimate(
        ensemble=name or ensemble.kind,
        num_instances=num_instances,
        sum_second_moments=float(np.mean(collisions)),
        std_error=float(np.std(collisions, ddof=1) / math.sqrt(num_instances)),
        seed=ensemble.seed,
    )


@dataclass(frozen=True)
class TailCheckReport:
    """Empirical test of the min-entropy tail bound."""

    bound_bits: float
    violation_fraction: float
    delta: float
    num_instances: int
    moment_sum: float


def min_entropy_tail_check(ensemble, delta: float, num_instances: int) -> TailCheckReport:
    """Fraction of instances with H_inf below (log2 delta - log2 sum_S E[P^2]) / 2.

    The moment sum is estimated from the same instance draw.
    """
    if not 0 < delta <= 1:
        raise InvalidParameterError("delta must be in (0, 1]")
    entropies, collisions = _sweep(ensemble, num_instances, lambda p: (min_entropy(p), _collision(p))).T
    ms = float(np.mean(collisions))
    bound = 0.5 * (math.log2(delta) - math.log2(ms))
    return TailCheckReport(
        bound_bits=bound,
        violation_fraction=float(np.mean(entropies < bound)),
        delta=delta,
        num_instances=num_instances,
        moment_sum=ms,
    )


@dataclass(frozen=True)
class AntiConcentrationReport:
    """Empirical anti-concentration probability against its Paley-Zygmund floor."""

    alpha: float
    gamma_hat: float
    floor: float
    std_error: float
    outcome: int
    num_instances: int
    passed: bool


def anti_concentration_check(
    ensemble,
    alpha: float,
    num_instances: int,
    outcome: int = 0,
) -> AntiConcentrationReport:
    """Estimate Pr[P(S) >= alpha / |E|] for fixed S and compare to (1-alpha)^2 E[Z]^2 / E[Z^2].

    E[Z] is 1/|E| (the tested ensembles are unbiased over outcomes); the
    second moment in the floor is estimated from the same instances.
    """
    if not 0 < alpha < 1:
        raise InvalidParameterError("alpha must be in (0, 1)")
    dim = ensemble.sample_space_size
    if not 0 <= outcome < dim:
        raise InvalidParameterError("outcome index out of range")
    values = _sweep(ensemble, num_instances, lambda p: p.entries[outcome])
    mean_z = 1.0 / dim
    second = float(np.mean(values**2))
    gamma_hat = float(np.mean(values >= alpha / dim))
    se = math.sqrt(max(gamma_hat * (1.0 - gamma_hat), 1.0 / num_instances) / num_instances)
    floor = (1.0 - alpha) ** 2 * mean_z**2 / second if second > 0 else 0.0
    return AntiConcentrationReport(
        alpha=alpha,
        gamma_hat=gamma_hat,
        floor=floor,
        std_error=se,
        outcome=outcome,
        num_instances=num_instances,
        passed=gamma_hat >= floor - 4.0 * se,
    )
