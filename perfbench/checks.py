"""Checks of every command's output, by invariants or by recomputation.

No check compares against a stored digest, so a correct rewrite of the
program that changes the last bits of a result still passes.  Bounds and
norms are recomputed here with plain numpy (sort, cumsum, 2/3 power); boson
probabilities are spot-checked against the permutation-sum permanent.

`corrupt` damages an output the way a subtle bug would (one probability off
by 1e-6, a norm or bound off by one part in 10^4, ...) and rewrites the
manifest digest to match, so that only the content check can catch it.  The
self-test uses it to show that every check fails on a wrong output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9
REL_TOL = 1e-9
MIN_SAMPLES, MAX_SAMPLES = 8, 2**20


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _close(got, want, what: str, rel: float = REL_TOL, abs_tol: float = 1e-300):
    _require(isinstance(got, (int, float)) and math.isfinite(got), f"{what} is not a finite number: {got!r}")
    _require(abs(got - want) <= max(rel * abs(want), abs_tol), f"{what} = {got!r}, recomputed {want!r}")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def read_dist(path: Path) -> np.ndarray:
    """A distribution file: the binary PVEC1 layout or a JSON array."""
    if path.suffix == ".pvec":
        blob = path.read_bytes()
        _require(blob[:5] == b"PVEC1" and len(blob) >= 13, f"{path.name}: not a PVEC1 file")
        length = int.from_bytes(blob[5:13], "little")
        arr = np.frombuffer(blob, dtype="<f8", offset=13)
        _require(arr.size == length, f"{path.name}: length field {length} != payload {arr.size}")
        return arr.astype(np.float64)
    data = _load_json(path)
    _require(isinstance(data, list), f"{path.name}: not a JSON array")
    return np.asarray(data, dtype=np.float64)


def _probabilities(p: np.ndarray, dim: int, what: str):
    _require(p.shape == (dim,), f"{what}: dimension {p.size}, expected {dim}")
    _require(bool(np.all(np.isfinite(p))) and bool(np.all(p >= 0)), f"{what}: entries not finite and >= 0")
    total = math.fsum(p.tolist())
    _require(abs(total - 1.0) <= SUM_TOL, f"{what}: entries sum to {total!r}")


# -- reference computations --------------------------------------------------


def core_norms(p: np.ndarray, tail_eps: float):
    """(2/3 quasi-norm, support) of p's truncated core: p without one largest
    entry and without the longest run of smallest nonzero entries whose
    total stays <= tail_eps.  Both depend only on the sorted values.

    The run's last entry can fall either side of tail_eps under another
    summation order, so the cores with one entry fewer or more removed
    follow the exact one.
    """
    v = np.sort(p[p > 0])[:-1]
    k = int(np.searchsorted(np.cumsum(v), tail_eps, side="right"))
    t = v ** (2.0 / 3.0)
    for removed in (k, k - 1, k + 1):
        if 0 <= removed <= v.size:
            yield float(np.sum(t[removed:]) ** 1.5), v.size - removed


def _matches_a_core(got_norm, got_support, p: np.ndarray, tail_eps: float, what: str) -> float:
    """The reported 2/3 norm (and support, if given) of the truncated core matches one candidate core."""
    for norm, support in core_norms(p, tail_eps):
        if isinstance(got_norm, float) and abs(got_norm - norm) <= REL_TOL * norm and got_support in (None, support):
            return norm
    raise CheckFailed(f"{what}: {got_norm!r} (support {got_support!r}) matches no recomputed core")


def quasinorm23(x: np.ndarray) -> float:
    return float(np.sum(x ** (2.0 / 3.0)) ** 1.5)


def phi(m: int, n: int) -> list[tuple]:
    """All occupations of m modes by n photons, in descending lexicographic order."""
    occs = set()
    for modes in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for j in modes:
            occ[j] += 1
        occs.add(tuple(occ))
    return sorted(occs, reverse=True)


def boson_probability(U: np.ndarray, n: int, occ: tuple) -> float:
    from certbound.boson import permanent

    us = np.repeat(U[:, :n], occ, axis=0)
    return abs(permanent(us, method="naive")) ** 2 / math.prod(math.factorial(s) for s in occ)


def _boson_unitary(seed: int, m: int) -> np.ndarray:
    # `simulate boson --seed s` draws its interferometer from stream (s, 0)
    from certbound.qsim import haar_unitary
    from certbound.rng import stream_rng

    return haar_unitary(m, stream_rng(seed, 0))


def _spot_check_boson(e: dict, outcomes: list, probs: np.ndarray):
    """Compare the largest, the first and the first collision-free outcome with the naive permanent."""
    U = _boson_unitary(e["seed"], e["m"])
    free = next(i for i, occ in enumerate(outcomes) if max(occ) <= 1)
    for i in sorted({int(np.argmax(probs)), 0, free}):
        want = boson_probability(U, e["n"], outcomes[i])
        _close(float(probs[i]), want, f"P{outcomes[i]}", rel=1e-8, abs_tol=1e-15)


# -- checks, one per output kind ---------------------------------------------


def check_distribution(cmd):
    _probabilities(read_dist(cmd.out), cmd.expect["dim"], cmd.out.name)


def check_boson_pvec(cmd):
    e = cmd.expect
    p = read_dist(cmd.out)
    _probabilities(p, e["dim"], cmd.out.name)
    _spot_check_boson(e, phi(e["m"], e["n"]), p)


def check_boson_csv(cmd):
    e = cmd.expect
    lines = cmd.out.read_text().splitlines()
    _require(lines[:1] == ["occupation,probability"], "missing CSV header")
    outcomes, probs = [], []
    for line in lines[1:]:
        occ, _, prob = line.partition(",")
        digits = tuple(int(c) for c in occ)
        _require(len(digits) == e["m"] and sum(digits) == e["n"], f"bad occupation {occ!r}")
        outcomes.append(digits)
        probs.append(float(prob))
    _require(len(set(outcomes)) == len(outcomes), "repeated occupation")
    probs = np.asarray(probs)
    _probabilities(probs, math.comb(e["m"] + e["n"] - 1, e["n"]), cmd.out.name)
    _spot_check_boson(e, outcomes, probs)


def check_norms(cmd):
    out = _load_json(cmd.out)
    p = read_dist(cmd.expect["dist"])
    _require(out.get("dim") == p.size and out.get("normalized") is True, "dim/normalized wrong")
    _require(out.get("support") == np.count_nonzero(p), "support wrong")
    _matches_a_core(out.get("core_l2_3"), out.get("core_support"), p, cmd.expect["eps"], "core_l2_3")
    _close(out.get("l1"), float(np.sum(p)), "l1")
    _close(out.get("l2_3"), quasinorm23(p), "l2_3")
    _close(out.get("min_entropy_bits"), -math.log2(p.max()), "min_entropy_bits")
    _close(out.get("renyi2_bits"), -math.log2(float(np.sum(p * p))), "renyi2_bits")


def check_bound(cmd):
    out = _load_json(cmd.out)
    p = read_dist(cmd.expect["dist"])
    eps, kind = cmd.expect["eps"], cmd.expect["kind"]
    _require(out.get("kind") == kind, f"kind {out.get('kind')!r}, expected {kind!r}")
    if kind == "sandwich":
        p0 = float(p.max())
        h = -math.log2(p0)
        paren = 1.0 - eps - p0
        lower = 0.0 if paren <= 0 else 2.0 ** (h / 2.0) * paren**1.5
        _close(out.get("lower"), lower, "lower")
        uppers = ((1.0 - p0) * math.sqrt(support) for _, support in core_norms(p, eps))
        got = out.get("upper")
        _require(isinstance(got, float) and any(abs(got - u) <= REL_TOL * u for u in uppers),
                 f"upper {got!r} matches no recomputed core")
        return
    tail = 2.0 * eps if kind == "vv_lower" else eps / 16.0
    norm = _matches_a_core(out.get("inputs", {}).get("norm_2_3"), None, p, tail, "norm_2_3")
    _close(out.get("value"), max(1.0 / eps, norm / eps**2), "value")


def _moments(cmd) -> tuple[float, float]:
    out = _load_json(cmd.out)
    _require(out.get("num_instances") == cmd.expect["instances"], "num_instances wrong")
    m, se = out.get("sum_second_moments"), out.get("std_error")
    for name, v in (("sum_second_moments", m), ("std_error", se)):
        _require(isinstance(v, float) and math.isfinite(v) and v >= 0, f"{name} = {v!r}")
    return m, se


def check_moments_haar(cmd):
    m, se = _moments(cmd)
    want = 2.0 / (cmd.expect["dim"] + 1)
    _require(abs(m - want) <= 4.0 * se, f"sum of second moments {m!r} not within 4 SE ({se!r}) of {want!r}")


def check_moments_range(cmd):
    m, _ = _moments(cmd)
    _require(1.0 / cmd.expect["dim"] <= m <= 1.0, f"sum of second moments {m!r} outside [1/dim, 1]")


def check_tail_check(cmd):
    out = _load_json(cmd.out)
    e = cmd.expect
    _require(out.get("num_instances") == e["instances"] and out.get("delta") == e["delta"], "echoed inputs wrong")
    vf, ms = out.get("violation_fraction"), out.get("moment_sum")
    _require(isinstance(vf, float) and 0.0 <= vf <= e["delta"], f"violation_fraction {vf!r} > delta")
    _require(isinstance(ms, float) and 1.0 / e["dim"] <= ms <= 1.0, f"moment_sum {ms!r} outside [1/dim, 1]")
    _require(isinstance(out.get("bound_bits"), float) and math.isfinite(out["bound_bits"]), "bound_bits not finite")


def check_anticoncentration(cmd):
    out = _load_json(cmd.out)
    e = cmd.expect
    _require(out.get("num_instances") == e["instances"] and out.get("alpha") == e["alpha"], "echoed inputs wrong")
    g, floor, se = out.get("gamma_hat"), out.get("floor"), out.get("std_error")
    _require(all(isinstance(v, float) and math.isfinite(v) for v in (g, floor, se)), "non-finite report")
    _require(0.0 <= g <= 1.0 and 0.0 <= floor <= 1.0 and se > 0, f"gamma_hat {g!r} / floor {floor!r} out of range")
    _require(out.get("passed") is (g >= floor - 4.0 * se), "passed disagrees with gamma_hat, floor and SE")
    _require(out["passed"] is True, f"anti-concentration floor {floor!r} not met: gamma_hat {g!r}")


def check_certify(cmd):
    out = _load_json(cmd.out)
    _require(isinstance(out.get("accept"), bool), "accept is not a bool")
    for key in ("statistic", "threshold"):
        _require(isinstance(out.get(key), float) and math.isfinite(out[key]), f"{key} not finite")
    used = out.get("samples_used")
    _require(used == cmd.expect["samples"], f"samples_used {used!r}, file holds {cmd.expect['samples']}")
    _require(MIN_SAMPLES <= used <= MAX_SAMPLES, f"samples_used {used} outside [8, 2^20]")


def check_complexity(cmd):
    out = _load_json(cmd.out)
    e = cmd.expect
    _require(out.get("dim") == e["dim"] and out.get("eps") == e["eps"], "echoed inputs wrong")
    _require(out.get("adversary") == e["adversary"], "adversary wrong")
    _close(out.get("adversary_l1"), e["distance"], "adversary_l1", rel=1e-9, abs_tol=1e-9)
    s = out.get("samples")
    _require(isinstance(s, int) and MIN_SAMPLES <= s <= MAX_SAMPLES, f"samples {s!r} outside [8, 2^20]")


def check_manifest(cmd):
    manifest = _load_json(Path(str(cmd.out) + ".manifest.json"))
    digest = hashlib.sha256(cmd.out.read_bytes()).hexdigest()
    _require(manifest.get("outputs", [{}])[0].get("sha256") == digest, "manifest sha256 does not match the output")


CHECKS = {
    "distribution": check_distribution,
    "boson_pvec": check_boson_pvec,
    "boson_csv": check_boson_csv,
    "norms": check_norms,
    "bound": check_bound,
    "moments_haar": check_moments_haar,
    "moments_range": check_moments_range,
    "tail_check": check_tail_check,
    "anticoncentration": check_anticoncentration,
    "certify": check_certify,
    "complexity": check_complexity,
}


def run_check(cmd):
    """Raise CheckFailed unless cmd's output and its manifest are right."""
    _require(cmd.out.is_file(), f"{cmd.out.name} was not written")
    check_manifest(cmd)
    CHECKS[cmd.check](cmd)


# -- corruption, for the self-test -------------------------------------------


def _edit_json(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _perturb_first_probability(path: Path):
    if path.suffix == ".pvec":
        p = read_dist(path).copy()
        p[0] += 1e-6
        path.write_bytes(path.read_bytes()[:13] + p.astype("<f8").tobytes())
    elif path.suffix == ".csv":
        lines = path.read_text().splitlines()
        occ, _, prob = lines[1].partition(",")
        lines[1] = f"{occ},{float(prob) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n")
    else:
        _edit_json(path, lambda d: d.__setitem__(0, d[0] + 1e-6))


def _scale(key):
    return lambda d: d.__setitem__(key, d[key] * (1 + 1e-4))


def _off_haar_value(cmd):
    """A Haar second-moment sum 5 SE away from the exact 2/(d+1)."""
    return lambda d: d.__setitem__("sum_second_moments", 2.0 / (cmd.expect["dim"] + 1) + 5 * d["std_error"])


CORRUPTIONS = {
    "distribution": lambda cmd: _perturb_first_probability(cmd.out),
    "boson_pvec": lambda cmd: _perturb_first_probability(cmd.out),
    "boson_csv": lambda cmd: _perturb_first_probability(cmd.out),
    "norms": lambda cmd: _edit_json(cmd.out, _scale("l2_3")),
    "bound": lambda cmd: _edit_json(cmd.out, _scale("lower" if cmd.expect["kind"] == "sandwich" else "value")),
    "moments_haar": lambda cmd: _edit_json(cmd.out, _off_haar_value(cmd)),
    "moments_range": lambda cmd: _edit_json(cmd.out, lambda d: d.__setitem__("sum_second_moments", 1.5)),
    "tail_check": lambda cmd: _edit_json(cmd.out, lambda d: d.__setitem__("violation_fraction", d["delta"] + 0.01)),
    "anticoncentration": lambda cmd: _edit_json(cmd.out, lambda d: d.__setitem__("passed", not d["passed"])),
    "certify": lambda cmd: _edit_json(cmd.out, lambda d: d.__setitem__("samples_used", d["samples_used"] - 1)),
    "complexity": lambda cmd: _edit_json(cmd.out, lambda d: d.__setitem__("samples", MIN_SAMPLES // 2)),
}


def corrupt(cmd):
    """Damage cmd's output and re-sign its manifest with the damaged file's digest."""
    CORRUPTIONS[cmd.check](cmd)
    manifest_path = Path(str(cmd.out) + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][0]["sha256"] = hashlib.sha256(cmd.out.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
