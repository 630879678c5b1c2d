"""Monte-Carlo second-moment estimation and the min-entropy / anti-concentration checks.

An ensemble is an object with an `instance_distribution(i) -> ProbVec`
method, a `kind` name and a `seed` (qsim.CircuitEnsemble,
boson.BosonEnsemble).  Instances are evaluated one after another, and
instance i always uses RNG stream (seed, i), so estimates are bit-for-bit
reproducible from the seed alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .distvec import ProbVec, min_entropy
from .errors import InvalidParameterError


def _instances(ensemble, num_instances: int):
    """Instance distributions in index order."""
    for i in range(num_instances):
        yield ensemble.instance_distribution(i)


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

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def estimate_second_moments(ensemble, num_instances: int, name: str = "") -> MomentEstimate:
    """Average of sum_S P(S)^2 (= 2^-H2) over `num_instances` fresh instances.

    The report is named `name`, or the ensemble's kind, and carries the ensemble's seed.
    """
    if num_instances < 2:
        raise InvalidParameterError("need at least 2 instances")
    collisions = np.empty(num_instances)
    for i, dist in enumerate(_instances(ensemble, num_instances)):
        collisions[i] = math.fsum((dist.entries**2).tolist())
    mean = float(np.mean(collisions))
    se = float(np.std(collisions, ddof=1) / math.sqrt(num_instances))
    return MomentEstimate(
        ensemble=name or ensemble.kind,
        num_instances=num_instances,
        sum_second_moments=mean,
        std_error=se,
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

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def min_entropy_tail_check(ensemble, delta: float, num_instances: int) -> TailCheckReport:
    """Fraction of instances with H_inf below (log2 delta - log2 sum_S E[P^2]) / 2.

    The moment sum is estimated from the same instance draw.
    """
    if not 0 < delta <= 1:
        raise InvalidParameterError("delta must be in (0, 1]")
    if num_instances < 2:
        raise InvalidParameterError("need at least 2 instances")
    entropies = np.empty(num_instances)
    collisions = np.empty(num_instances)
    for i, dist in enumerate(_instances(ensemble, num_instances)):
        entropies[i] = min_entropy(dist)
        collisions[i] = math.fsum((dist.entries**2).tolist())
    ms = float(np.mean(collisions))
    bound = 0.5 * (math.log2(delta) - math.log2(ms))
    violations = float(np.mean(entropies < bound))
    return TailCheckReport(
        bound_bits=bound,
        violation_fraction=violations,
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

    def to_json(self) -> str:
        return json.dumps(asdict(self))


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
    if num_instances < 2:
        raise InvalidParameterError("need at least 2 instances")
    values = np.empty(num_instances)
    dim = None
    for i, dist in enumerate(_instances(ensemble, num_instances)):
        if dim is None:
            dim = dist.dim
            if not 0 <= outcome < dim:
                raise InvalidParameterError("outcome index out of range")
        values[i] = dist.entries[outcome]
    mean_z = 1.0 / dim
    second = float(np.mean(values**2))
    hits = values >= alpha / dim
    gamma_hat = float(np.mean(hits))
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
