"""The benchmark's workloads: inputs made from the seed, and the certbound
CLI commands each workload runs.

A workload is a fixed list of commands that one client runs in a closed
loop, one after another, the way a researcher drives the CLI.  Each
workload function writes the workload's input files and returns a plan; the
plan gives the command list of one pass, with outputs in the pass's own
directory.  The
program only ever sees files and flags: every seed it gets is derived here
from the benchmark's `--seed`.

Sizes are fixed per workload.  The desk-cap sizes that the roadmap targets
(n = 20 qubits, dim 2^16 for the tester, boson (n, m) = (5, 16)) are kept;
only Monte-Carlo instance counts are scaled so that a pass takes a few
seconds.  `tiny` sizes exist for the self-test only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# end-to-end command families; each family's time is reported on its own
FAMILIES = {
    "simulate": "simulate_s",
    "norms": "bounds_s",
    "bounds": "bounds_s",
    "moments": "sweep_s",
    "tail-check": "sweep_s",
    "anticoncentration": "sweep_s",
    "certify": "certify_s",
    "complexity": "complexity_s",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the output file it writes and how to check it."""

    argv: tuple
    out: Path
    check: str
    expect: dict = field(default_factory=dict)

    @property
    def family(self) -> str:
        return FAMILIES[self.argv[0]]


def _cmd(out_dir: Path, out_name: str, check: str, argv: list, **expect) -> Command:
    out = out_dir / out_name
    return Command(tuple(str(a) for a in argv) + ("--out", str(out)), out, check, expect)


def cli_seed(seed: int, k: int) -> int:
    """The --seed flag of the workload's k-th command."""
    return seed * 1000 + k


def _input_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**63 - 1), k])


# -- input generation (independent of the program under test) ---------------


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform."""
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        a = np.stack([a[:, 0, :] + a[:, 1, :], a[:, 0, :] - a[:, 1, :]], axis=1).reshape(n)
        h *= 2
    return a


def iqp_target(n: int, rng: np.random.Generator) -> np.ndarray:
    """Output distribution of a random IQP circuit with angles in {k pi/8}.

    P = |H^n exp(i theta) / 2^n|^2 with theta(x) = sum_i w_ii chi_i +
    sum_{i<j} w_ij chi_i chi_j and chi_i = (-1)^(x_i), qubit 0 the most
    significant bit.
    """
    k = rng.integers(0, 8, size=(n, n))
    w = (np.triu(k) + np.triu(k, 1).T) * (math.pi / 8)
    x = np.arange(2**n)
    chi = 1.0 - 2.0 * ((x[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    off = w - np.diag(np.diag(w))
    theta = np.diag(w) @ chi + 0.5 * np.sum(chi * (off @ chi), axis=0)
    amps = fwht(np.exp(1j * theta)) / 2**n
    p = np.abs(amps) ** 2
    return p / p.sum()


def write_pvec(path: Path, p: np.ndarray):
    """The CLI's binary format: b'PVEC1', u64 little-endian length, float64 payload."""
    path.write_bytes(b"PVEC1" + len(p).to_bytes(8, "little") + p.astype("<f8").tobytes())


def draw_samples(p: np.ndarray, count: int, rng: np.random.Generator) -> list:
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(count), side="right").tolist()


# -- workloads ---------------------------------------------------------------


def sweep(seed: int, inputs: Path, tiny: bool):
    """Thousands of small Monte-Carlo instances: per-instance overhead and the pool."""
    if tiny:
        haar, tail, anti, rcs = (4, 200), (6, 100), (8, 20), (6, 10, 20)
    else:
        haar, tail, anti, rcs = (4, 3000), (10, 600), (16, 20), (10, 60, 100)

    def plan(out: Path) -> list[Command]:
        ens = ["--ensemble"]
        return [
            _cmd(out, "haar_moments.json", "moments_haar",
                 ["moments", *ens, "haar", "--n", haar[0], "--instances", haar[1], "--seed", cli_seed(seed, 0)],
                 dim=2 ** haar[0], instances=haar[1]),
            _cmd(out, "iqp_tail.json", "tail_check",
                 ["tail-check", *ens, "iqp", "--n", tail[0], "--delta", 0.2, "--instances", tail[1],
                  "--seed", cli_seed(seed, 1)],
                 dim=2 ** tail[0], instances=tail[1], delta=0.2),
            _cmd(out, "iqp_anti.json", "anticoncentration",
                 ["anticoncentration", *ens, "iqp", "--n", anti[0], "--alpha", 0.5, "--instances", anti[1],
                  "--seed", cli_seed(seed, 2)],
                 instances=anti[1], alpha=0.5),
            _cmd(out, "rcs_moments.json", "moments_range",
                 ["moments", *ens, "rcs", "--n", rcs[0], "--depth", rcs[1], "--instances", rcs[2],
                  "--seed", cli_seed(seed, 3)],
                 dim=2 ** rcs[0], instances=rcs[2]),
        ]

    return plan


def bigvec(seed: int, inputs: Path, tiny: bool):
    """A few vectors of 2^20 entries: per-element work in qsim and distvec, and file I/O."""
    big, mid = (10, 8) if tiny else (20, 18)

    def plan(out: Path) -> list[Command]:
        iqp, haar, js = out / "iqp.pvec", out / "haar.pvec", out / "haar.json"
        cmds = [
            _cmd(out, iqp.name, "distribution", ["simulate", "iqp", "--n", big, "--seed", cli_seed(seed, 0)],
                 dim=2**big),
            _cmd(out, haar.name, "distribution", ["simulate", "haar", "--n", big, "--seed", cli_seed(seed, 1)],
                 dim=2**big),
            _cmd(out, js.name, "distribution", ["simulate", "haar", "--n", mid, "--seed", cli_seed(seed, 2)],
                 dim=2**mid),
        ]
        for name, dist in (("iqp_norms.json", iqp), ("json_norms.json", js)):
            cmds.append(_cmd(out, name, "norms", ["norms", "--dist", dist, "--eps", 0.1], dist=dist, eps=0.1))
        for kind, dist in (("vv_lower", iqp), ("vv_upper", haar), ("sandwich", js)):
            cmds.append(_cmd(out, f"{kind}.json", "bound", ["bounds", "--kind", kind, "--dist", dist, "--eps", 0.1],
                             dist=dist, eps=0.1, kind=kind))
        return cmds

    return plan


def boson(seed: int, inputs: Path, tiny: bool):
    """Boson-sampling distributions: the scalar Ryser permanent does almost all the work."""
    csv_nm, pvec_nm, mom_nm = ((2, 6), (3, 8), (2, 5)) if tiny else ((4, 16), (5, 16), (3, 9))
    instances = 20 if tiny else 100

    def plan(out: Path) -> list[Command]:
        pvec = out / "boson.pvec"
        n, m = pvec_nm
        dim = math.comb(m + n - 1, n)
        s0, s1 = cli_seed(seed, 0), cli_seed(seed, 1)
        return [
            _cmd(out, "boson.csv", "boson_csv",
                 ["simulate", "boson", "--n", csv_nm[0], "--m", csv_nm[1], "--csv", "--seed", s0],
                 n=csv_nm[0], m=csv_nm[1], seed=s0),
            _cmd(out, pvec.name, "boson_pvec", ["simulate", "boson", "--n", n, "--m", m, "--seed", s1],
                 n=n, m=m, seed=s1, dim=dim),
            _cmd(out, "boson_norms.json", "norms", ["norms", "--dist", pvec, "--eps", 0.1], dist=pvec, eps=0.1),
            _cmd(out, "boson_vv_lower.json", "bound", ["bounds", "--kind", "vv_lower", "--dist", pvec, "--eps", 0.1],
                 dist=pvec, eps=0.1, kind="vv_lower"),
            _cmd(out, "boson_moments.json", "moments_range",
                 ["moments", "--ensemble", "boson", "--n", mom_nm[0], "--m", mom_nm[1], "--instances", instances,
                  "--seed", cli_seed(seed, 2)],
                 dim=math.comb(mom_nm[1] + mom_nm[0] - 1, mom_nm[0]), instances=instances),
        ]

    return plan


def certify(seed: int, inputs: Path, tiny: bool):
    """The identity tester: one big tester per certify, many small ones per complexity search."""
    if tiny:
        search_n, cert = 6, ((8, 500), (8, 1000))
        uniform = 64
    else:
        search_n, cert = 12, ((14, 8000), (16, 20000))
        uniform = 4096
    p = iqp_target(search_n, _input_rng(seed, 0))
    search_target = inputs / f"iqp{search_n}.json"
    search_target.write_text(json.dumps(p.tolist()))
    certs = []
    for k, (n, count) in enumerate(cert, start=1):
        p = iqp_target(n, _input_rng(seed, 2 * k))
        target, samples = inputs / f"iqp{n}_{k}.pvec", inputs / f"samples{n}_{k}.json"
        write_pvec(target, p)
        samples.write_text(json.dumps(draw_samples(p, count, _input_rng(seed, 2 * k + 1))))
        certs.append((target, samples, count))

    def plan(out: Path) -> list[Command]:
        cmds = [
            _cmd(out, f"certify{k}.json", "certify",
                 ["certify", "--target", target, "--samples", samples, "--eps", 0.1, "--seed", cli_seed(seed, k)],
                 samples=count)
            for k, (target, samples, count) in enumerate(certs)
        ]
        for k, (dist, dim, eps, distance) in enumerate(
            ((f"uniform:{uniform}", uniform, 0.2, 0.4), (search_target, 2**search_n, 0.25, 0.5)), start=len(certs)
        ):
            cmds.append(
                _cmd(out, f"complexity{k}.json", "complexity",
                     ["complexity", "--dist", dist, "--eps", eps, "--distance", distance, "--seed", cli_seed(seed, k)],
                     dim=dim, eps=eps, distance=distance, adversary="pairwise_shift")
            )
        return cmds

    return plan


# name -> setup(seed, inputs dir, tiny) -> plan(pass dir) -> list[Command];
# BENCHMARK.json says why each workload is there
WORKLOADS = {"sweep": sweep, "bigvec": bigvec, "boson": boson, "certify": certify}
