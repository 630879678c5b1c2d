"""Closed-form certification sample-complexity bounds.

Every bound is evaluated as an explicit pre-asymptotic formula with its
universal constants exposed as parameters (they are not known numerically;
defaults of 1 keep the outputs honest, and every report is annotated
accordingly).  Values are numbers of samples, entropies are in bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distvec import ProbVec, lp_quasinorm, min_entropy, truncated_core
from .errors import InvalidParameterError

UNSPECIFIED_CONSTANT_NOTE = "up to unspecified universal constant"

KINDS = (
    "vv_lower",
    "vv_upper",
    "postselected",
    "min_entropy_based",
    "iqp",
    "design",
    "boson_a",
    "boson_b",
)


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound together with all intermediate quantities."""

    kind: str
    value: float
    inputs: dict = field(default_factory=dict)
    notes: str = UNSPECIFIED_CONSTANT_NOTE

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown bound kind {self.kind!r}")
        if not (self.value >= 0):
            raise InvalidParameterError("bound value must be >= 0")

    def to_json(self) -> str:
        # stable field order: kind, value, inputs (sorted keys), notes
        return json.dumps(
            {
                "kind": self.kind,
                "value": self.value,
                "inputs": {k: self.inputs[k] for k in sorted(self.inputs)},
                "notes": self.notes,
            }
        )


def _check_eps(eps: float):
    if not 0 < eps < 1:
        raise InvalidParameterError("eps must be in (0, 1)")


def _check_constant(name: str, c: float):
    if not c > 0:
        raise InvalidParameterError(f"{name} must be > 0")


def _quasinorm_branch(p: ProbVec, eps: float, tail_eps: float, const: float, kind: str) -> BoundReport:
    core = truncated_core(p, tail_eps)
    norm = lp_quasinorm(core, 2.0 / 3.0)
    quasi_term = norm / eps**2
    trivial_term = 1.0 / eps
    value = const * max(trivial_term, quasi_term)
    return BoundReport(
        kind=kind,
        value=value,
        inputs={
            "eps": eps,
            "tail_eps": tail_eps,
            "constant": const,
            "norm_2_3": norm,
            "branch": "quasinorm" if quasi_term >= trivial_term else "1/eps",
        },
    )


def vv_lower_bound(p: ProbVec, eps: float, c2: float = 1.0) -> BoundReport:
    """No eps-certification test exists below c2 * max{1/eps, ||core(p, 2 eps)||_{2/3} / eps^2}."""
    _check_eps(eps)
    _check_constant("c2", c2)
    if not p.normalized:
        raise InvalidParameterError("p must be normalized")
    return _quasinorm_branch(p, eps, 2.0 * eps, c2, "vv_lower")


def vv_upper_bound(p: ProbVec, eps: float, c1: float = 1.0) -> BoundReport:
    """An eps-certification test exists from c1 * max{1/eps, ||core(p, eps/16)||_{2/3} / eps^2} samples."""
    _check_eps(eps)
    _check_constant("c1", c1)
    if not p.normalized:
        raise InvalidParameterError("p must be normalized")
    return _quasinorm_branch(p, eps, eps / 16.0, c1, "vv_upper")


def norm23_bounds(p: ProbVec, eps: float = 0.0) -> tuple[float, float]:
    """Min-entropy sandwich on the 2/3 quasi-norm of the truncated core.

    lower = 2^(H/2) (1 - eps - 2^-H)^(3/2), clamped at 0
    upper = (1 - 2^-H) sqrt(support of the truncated core)
    """
    if eps < 0:
        raise InvalidParameterError("eps must be >= 0")
    if not p.normalized:
        raise InvalidParameterError("p must be normalized")
    h = min_entropy(p)
    p0 = 2.0**-h
    paren = 1.0 - eps - p0
    lower = 0.0 if paren <= 0 else 2.0 ** (h / 2.0) * paren**1.5
    support = lp_quasinorm(truncated_core(p, eps), 0.0)
    upper = (1.0 - p0) * math.sqrt(support)
    return lower, upper


def postselected_lower_bound(p: ProbVec, subset, eps: float, c2: float = 1.0) -> BoundReport:
    """Lower bound via the renormalized restriction of p to an outcome subset."""
    _check_eps(eps)
    _check_constant("c2", c2)
    if not p.normalized:
        raise InvalidParameterError("p must be normalized")
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.intp)
    if idx.size == 0:
        raise InvalidParameterError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= p.dim:
        raise InvalidParameterError("subset index out of range")
    weight = math.fsum(p.entries[idx].tolist())
    if weight <= 0:
        raise InvalidParameterError("subset has zero probability weight")
    restricted = ProbVec(p.entries[idx] / weight)
    core = truncated_core(restricted, 2.0 * eps / weight)
    norm = lp_quasinorm(core, 2.0 / 3.0)
    quasi_term = weight * norm / eps**2
    value = c2 * max(1.0 / eps, quasi_term)
    return BoundReport(
        kind="postselected",
        value=value,
        inputs={
            "eps": eps,
            "constant": c2,
            "subset_weight": weight,
            "norm_2_3": norm,
            "trivial": weight <= 2.0 * eps,
            "branch": "quasinorm" if quasi_term >= 1.0 / eps else "1/eps",
        },
    )


def smin_from_min_entropy(h_inf: float, eps: float, c2: float = 1.0) -> BoundReport:
    """Entropy-sandwich lower branch fed into the optimal-test lower bound.

    value = c2 / eps^2 * 2^(h/2) * (1 - 2 eps - 2^-h)^(3/2), clamped at 0.
    """
    if h_inf < 0:
        raise InvalidParameterError("h_inf must be >= 0")
    if not 0 < eps < 0.5:
        raise InvalidParameterError("eps must be in (0, 1/2)")
    _check_constant("c2", c2)
    paren = 1.0 - 2.0 * eps - 2.0**-h_inf
    value = 0.0 if paren <= 0 else c2 / eps**2 * 2.0 ** (h_inf / 2.0) * paren**1.5
    return BoundReport(
        kind="min_entropy_based",
        value=value,
        inputs={"h_inf": h_inf, "eps": eps, "constant": c2, "clamped": paren <= 0},
    )


def smin_iqp(n: int, delta: float, eps: float, c2: float = 1.0) -> BoundReport:
    """IQP sample-complexity lower bound via H_inf >= (n + log2(delta/3)) / 2."""
    if not 0 < delta <= 1:
        raise InvalidParameterError("delta must be in (0, 1]")
    h = max(0.0, 0.5 * (n + math.log2(delta / 3.0)))
    rep = smin_from_min_entropy(h, eps, c2)
    inputs = dict(rep.inputs, n=n, delta=delta)
    return BoundReport(kind="iqp", value=rep.value, inputs=inputs)


def smin_design(n: int, delta: float, eps: float, eps_tilde: float = 0.0, c2: float = 1.0) -> BoundReport:
    """Relative approximate-2-design bound via H_inf >= (n + log2(delta / (2 (1+eps_tilde)))) / 2."""
    if not 0 < delta <= 1:
        raise InvalidParameterError("delta must be in (0, 1]")
    if eps_tilde < 0:
        raise InvalidParameterError("eps_tilde must be >= 0")
    h = max(0.0, 0.5 * (n + math.log2(delta / (2.0 * (1.0 + eps_tilde)))))
    rep = smin_from_min_entropy(h, eps, c2)
    inputs = dict(rep.inputs, n=n, delta=delta, eps_tilde=eps_tilde)
    return BoundReport(kind="design", value=rep.value, inputs=inputs)


def smin_boson(
    n: int,
    m: int,
    delta: float,
    eps: float,
    zeta: float,
    C: float = 0.0,
    c2: float = 1.0,
) -> BoundReport:
    """Boson-sampling lower bound via post-selection onto the collision-free subspace.

    The post-selected min-entropy satisfies
        2 H >= 2 log2(1 - zeta) + log2 delta
               - log2((m^n/n!) (1+C) (n!)^2 (n+1) m^-2n)
    and the reported value is c2 max{1/eps, (1-zeta) 2^(H/2) (1-zeta-2 eps)^(3/2) / eps^2}.
    The bound fails with probability at most delta + 2 n^2 / (zeta m).
    """
    if m < n or n < 1:
        raise InvalidParameterError("need m >= n >= 1")
    if not 0 < delta <= 1:
        raise InvalidParameterError("delta must be in (0, 1]")
    if not 0 < zeta < 1:
        raise InvalidParameterError("zeta must be in (0, 1)")
    if C < 0:
        raise InvalidParameterError("C must be >= 0")
    _check_eps(eps)
    _check_constant("c2", c2)
    # log2((m^n/n!) (1+C) (n!)^2 (n+1) m^-2n) = log2(1+C) + log2(n!) + log2(n+1) - n log2(m)
    log_inner = math.log2(1.0 + C) + math.lgamma(n + 1) / math.log(2) + math.log2(n + 1) - n * math.log2(m)
    h = max(0.0, 0.5 * (2.0 * math.log2(1.0 - zeta) + math.log2(delta) - log_inner))
    paren = 1.0 - zeta - 2.0 * eps
    trivial = paren <= 0
    quasi_term = 0.0 if trivial else (1.0 - zeta) * 2.0 ** (h / 2.0) * paren**1.5 / eps**2
    value = c2 * max(1.0 / eps, quasi_term)
    return BoundReport(
        kind="boson_a",
        value=value,
        inputs={
            "n": n,
            "m": m,
            "delta": delta,
            "eps": eps,
            "zeta": zeta,
            "C": C,
            "constant": c2,
            "h_inf": h,
            "trivial": trivial,
            "failure_probability": delta + 2.0 * n**2 / (zeta * m),
        },
    )


def smin_boson_full_space(n: int, eps: float, c2: float = 1.0) -> BoundReport:
    """Full-space boson bound: H_inf >= 2n holds except with probability exp(-Omega(n^(nu-2-1/n))).

    The Omega-constant in the tail probability is not computable from the
    analysis, so it is carried as a symbolic note only.
    """
    rep = smin_from_min_entropy(2.0 * n, eps, c2)
    inputs = dict(rep.inputs, n=n)
    return BoundReport(
        kind="boson_b",
        value=rep.value,
        inputs=inputs,
        notes=(
            UNSPECIFIED_CONSTANT_NOTE
            + "; holds for nu > 3 with failure probability exp(-Omega(n^(nu-2-1/n)))"
        ),
    )
