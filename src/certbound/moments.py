"""Monte-Carlo second-moment estimation and the min-entropy / anti-concentration checks.

An ensemble (qsim.CircuitEnsemble, boson.BosonEnsemble) is an object with
- `instance_distribution(i) -> ProbVec`, the output distribution of instance i;
- `distributions(count)`, an iterator over the distributions of instances
  0 ... count-1 in index order, equal to instance_distribution(i) bit for
  bit; it may simulate several instances at once, but keeps no reference to
  a distribution it has yielded;
- `kind`, its name, and `seed`, the seed that drives it;
- `sample_space_size`, the number of outcomes of every instance.

Both ensembles take `instance_distribution` and `distributions` from one
sweep, `qsim._Sweep`, and supply only a kernel factory: a batch size and a
kernel that simulates a batch of instances from their streams.  Each check
sweeps instances 0 ... N-1 once, in index order, through `distributions`,
and instance i always uses RNG stream (seed, i), alone or in a batch, so
estimates are bit-for-bit reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distvec import ProbVec, _fsum, min_entropy
from .errors import InvalidParameterError, check_draws, check_real


def _sweep(ensemble, num_instances: int, stat) -> np.ndarray:
    """stat(distribution of instance i) for i = 0 ... num_instances-1, in index order."""
    check_draws("instances", num_instances, 2)
    # map drops each distribution once stat returns; a list comprehension's loop variable would keep
    # it alive while the next one is built
    return np.array(list(map(stat, ensemble.distributions(num_instances))))


def _fraction_std_error(fraction: float, num_instances: int) -> float:
    """Standard error of a fraction of num_instances draws, sqrt(max(f(1-f), 1/N) / N).

    The 1/N floor keeps it positive where the fraction is 0 or 1.
    """
    return math.sqrt(max(fraction * (1.0 - fraction), 1.0 / num_instances) / num_instances)


def _collision(p: ProbVec) -> float:
    """sum_S P(S)^2 (= 2^-H2), with the squares taken chunk by chunk inside the sum."""
    return _fsum(p.entries, 2.0)


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


def estimate_second_moments(ensemble, num_instances: int) -> MomentEstimate:
    """Average of sum_S P(S)^2 over `num_instances` fresh instances, named by the ensemble's kind and seed."""
    collisions = _sweep(ensemble, num_instances, _collision)
    return MomentEstimate(
        ensemble=ensemble.kind,
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
    std_error: float  # of violation_fraction
    seed: int


def min_entropy_tail_check(ensemble, delta: float, num_instances: int) -> TailCheckReport:
    """Fraction of instances with H_inf below (log2 delta - log2 sum_S E[P^2]) / 2.

    The moment sum is estimated from the same instance draw.
    """
    check_real("delta", delta, 0, 1, "(]")
    entropies, collisions = _sweep(ensemble, num_instances, lambda p: (min_entropy(p), _collision(p))).T
    ms = float(np.mean(collisions))
    bound = 0.5 * (math.log2(delta) - math.log2(ms))
    violations = float(np.mean(entropies < bound))
    return TailCheckReport(
        bound_bits=bound,
        violation_fraction=violations,
        delta=delta,
        num_instances=num_instances,
        moment_sum=ms,
        std_error=_fraction_std_error(violations, num_instances),
        seed=ensemble.seed,
    )


@dataclass(frozen=True)
class AntiConcentrationReport:
    """Empirical anti-concentration probability against its Paley-Zygmund floor."""

    alpha: float
    gamma_hat: float
    floor: float
    std_error: float
    outcome: int  # always 0, the outcome tested
    num_instances: int
    passed: bool
    seed: int


def anti_concentration_check(ensemble, alpha: float, num_instances: int) -> AntiConcentrationReport:
    """Estimate Pr[P(S) >= alpha / |E|] for outcome S = 0 and compare to (1-alpha)^2 E[Z]^2 / E[Z^2].

    E[Z] is 1/|E| (the tested ensembles are unbiased over outcomes); the
    second moment in the floor is estimated from the same instances.
    """
    check_real("alpha", alpha, 0, 1, "()")
    dim = ensemble.sample_space_size
    values = _sweep(ensemble, num_instances, lambda p: p.entries[0])
    mean_z = 1.0 / dim
    second = float(np.mean(values**2))
    gamma_hat = float(np.mean(values >= alpha / dim))
    se = _fraction_std_error(gamma_hat, num_instances)
    floor = (1.0 - alpha) ** 2 * mean_z**2 / second if second > 0 else 0.0
    return AntiConcentrationReport(
        alpha=alpha,
        gamma_hat=gamma_hat,
        floor=floor,
        std_error=se,
        outcome=0,
        num_instances=num_instances,
        passed=gamma_hat >= floor - 4.0 * se,
        seed=ensemble.seed,
    )
