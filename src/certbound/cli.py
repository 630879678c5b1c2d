"""Command-line front end: bound evaluation, simulation, Monte-Carlo checks,
certification, and reproducibility manifests.

Each `cmd_*` handler returns its result (text, or bytes for a `.pvec`
file) and `main` emits it: printed to stdout, or written to `--out` with a
`<output>.manifest.json` beside it recording the command, full
configuration, seed, package version, timestamps, and the sha256 of the
output.  Rerunning with the same configuration reproduces the outputs byte
for byte (the manifest's timestamps differ).

`simulate` writes instance 0 of the same ensemble that `moments`,
`tail-check` and `anticoncentration` sweep for the same `--seed`.

Exit codes: 0 success, 1 validation error, 2 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bounds import (
    norm23_bounds,
    postselected_lower_bound,
    smin_boson,
    smin_boson_full_space,
    smin_design,
    smin_iqp,
    vv_lower_bound,
    vv_upper_bound,
)
from .boson import BosonEnsemble, boson_distribution, bs_flatness_tail_bound
from .certtest import ADVERSARIES, CertificationTester, TesterConfig, empirical_sample_complexity
from .distvec import ProbVec, l1_distance, lp_quasinorm, min_entropy, renyi_entropy, truncated_core
from .errors import MAX_QUBITS, InvalidParameterError, ResourceLimitError
from .moments import anti_concentration_check, estimate_second_moments, min_entropy_tail_check
from .qsim import CircuitEnsemble


def _load_dist(spec: str) -> ProbVec:
    """`uniform:D`, `pointmass:D`, a `.pvec` file or a JSON file, of dimension at most 2**MAX_QUBITS."""
    kind, sep, dim = spec.partition(":")
    builtin = sep and kind in ("uniform", "pointmass")
    path = Path(spec)
    if builtin:
        d = int(dim)
    elif not path.exists():
        raise InvalidParameterError(f"no such distribution file: {spec}")
    elif path.suffix == ".pvec":
        d = (path.stat().st_size - 13) // 8  # 13-byte header, 8 bytes an entry; the payload is not read yet
    else:
        text = path.read_text()
        d = text.count(",") + 1  # an array of d numbers has d - 1 commas; the JSON is not parsed yet
    if d > 2**MAX_QUBITS:
        raise ResourceLimitError(f"{spec}: dimension exceeds 2**{MAX_QUBITS}")
    if builtin:
        return ProbVec.uniform(d) if kind == "uniform" else ProbVec.point_mass(d)
    return ProbVec.from_bytes(path.read_bytes()) if path.suffix == ".pvec" else ProbVec.from_json(text)


def _finite_float(text: str) -> float:
    """The type of every float flag: a non-number, NaN or an infinity is a bad command line."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite float: {text!r}")
    return x


def _emit(args, payload: str | bytes):
    """Print the result, or write it (text or binary) to --out with a manifest beside it."""
    if not getattr(args, "out", None):
        print(payload, end="" if payload.endswith("\n") else "\n")
        return
    p = Path(args.out)
    if isinstance(payload, bytes):
        p.write_bytes(payload)
    else:
        p.write_text(payload)
    manifest = {
        "command": args.subcommand,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "_started")},
        "seed": getattr(args, "seed", 0),
        "artifact_version": __version__,
        "started": args._started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": [{"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}],
    }
    Path(str(p) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _make_ensemble(args):
    # --m and --depth default to 0; a set value must be one the ensemble reads
    for flag, owner in (("m", "boson"), ("depth", "rcs")):
        if getattr(args, flag) and args.ensemble != owner:
            raise InvalidParameterError(f"--{flag} applies to the {owner} ensemble only")
    if args.ensemble == "boson":
        return BosonEnsemble(n=args.n, m=args.m, seed=args.seed)
    kind = {"iqp": "iqp", "haar": "haar_state", "rcs": "local_random"}[args.ensemble]
    return CircuitEnsemble(kind=kind, n=args.n, seed=args.seed, depth=args.depth)


# -- subcommand handlers ----------------------------------------------------


def cmd_norms(args):
    v = _load_dist(args.dist)
    core = truncated_core(v, args.eps)
    out = {
        "dim": v.dim,
        "normalized": v.normalized,
        "l1": lp_quasinorm(v, 1.0),
        "l2_3": lp_quasinorm(v, 2.0 / 3.0),
        "support": lp_quasinorm(v, 0.0),
        "core_l2_3": lp_quasinorm(core, 2.0 / 3.0),
        "core_support": lp_quasinorm(core, 0.0),
    }
    if v.normalized:
        out["min_entropy_bits"] = min_entropy(v)
        out["renyi2_bits"] = renyi_entropy(v, 2.0)
    return json.dumps(out)


def _subset(args) -> list[int]:
    try:
        return [int(x) for x in args.subset.split(",")]
    except ValueError:
        raise InvalidParameterError(f"--subset needs comma-separated outcome indices, got {args.subset!r}") from None


def _sandwich(args) -> str:
    lo, hi = norm23_bounds(_load_dist(args.dist), args.eps)
    return json.dumps({"kind": "sandwich", "lower": lo, "upper": hi, "eps": args.eps})


# the flags of `bounds` besides --kind and --eps: dest -> (type, default)
_BOUND_FLAGS = {
    "dist": (str, None),
    "c1": (_finite_float, 1.0),
    "c2": (_finite_float, 1.0),
    "subset": (str, ""),
    "n": (int, 0),
    "m": (int, 0),
    "delta": (_finite_float, 0.5),
    "eps_tilde": (_finite_float, 0.0),
    "zeta": (_finite_float, 0.25),
    "C": (_finite_float, 0.0),
}

# --kind -> (the bound's JSON, the _BOUND_FLAGS it reads); the keys are the flag's choices
_BOUNDS = {
    "vv_lower": (lambda a: vv_lower_bound(_load_dist(a.dist), a.eps, a.c2).to_json(), ("dist", "c2")),
    "vv_upper": (lambda a: vv_upper_bound(_load_dist(a.dist), a.eps, a.c1).to_json(), ("dist", "c1")),
    "sandwich": (_sandwich, ("dist",)),
    "postselected": (
        lambda a: postselected_lower_bound(_load_dist(a.dist), _subset(a), a.eps, a.c2).to_json(),
        ("dist", "subset", "c2"),
    ),
    "smin_iqp": (lambda a: smin_iqp(a.n, a.delta, a.eps, a.c2).to_json(), ("n", "delta", "c2")),
    "smin_design": (
        lambda a: smin_design(a.n, a.delta, a.eps, a.eps_tilde, a.c2).to_json(),
        ("n", "delta", "eps_tilde", "c2"),
    ),
    "smin_boson": (
        lambda a: smin_boson(a.n, a.m, a.delta, a.eps, a.zeta, a.C, a.c2).to_json(),
        ("n", "m", "delta", "zeta", "C", "c2"),
    ),
    "smin_boson_b": (lambda a: smin_boson_full_space(a.n, a.eps, a.c2).to_json(), ("n", "c2")),
}


def cmd_bounds(args):
    bound, reads = _BOUNDS[args.kind]
    if "dist" in reads and args.dist is None:
        raise InvalidParameterError(f"--kind {args.kind} needs --dist")
    for flag, (_, default) in _BOUND_FLAGS.items():
        if flag not in reads and getattr(args, flag) != default:
            raise InvalidParameterError(f"--{flag.replace('_', '-')} is not read by --kind {args.kind}")
    return bound(args)


def cmd_simulate(args):
    if args.csv and args.ensemble != "boson":
        raise InvalidParameterError("--csv applies to the boson ensemble only")
    ens = _make_ensemble(args)
    if args.csv:
        dist, outcomes = boson_distribution(ens.instance(0))
        lines = ["occupation,probability"]
        lines += [f"{occ},{float(prob)!r}" for occ, prob in zip(outcomes, dist.entries)]
        return "\n".join(lines) + "\n"
    dist = ens.instance_distribution(0)
    return dist.to_bytes() if args.out and args.out.endswith(".pvec") else dist.to_json()


def cmd_moments(args):
    return json.dumps(asdict(estimate_second_moments(_make_ensemble(args), args.instances, name=args.ensemble)))


def cmd_tail_check(args):
    return json.dumps(asdict(min_entropy_tail_check(_make_ensemble(args), args.delta, args.instances)))


def cmd_anticoncentration(args):
    return json.dumps(asdict(anti_concentration_check(_make_ensemble(args), args.alpha, args.instances)))


def cmd_certify(args):
    target = _load_dist(args.target)
    samples = json.loads(Path(args.samples).read_text())
    # bool is a subclass of int, and np.asarray([0, True]) is an int64 array
    if not isinstance(samples, list) or any(type(s) is not int for s in samples):
        raise InvalidParameterError(f"{args.samples} must hold a JSON array of integer outcome indices")
    cfg = TesterConfig(
        eps=args.eps, samples=len(samples), calibration_runs=args.calibration_runs, seed=args.seed
    )
    return json.dumps(asdict(CertificationTester(target, cfg).test(samples)))


def cmd_complexity(args):
    p = _load_dist(args.dist)
    adversary = ADVERSARIES[args.adversary](p, args.distance)
    cfg = TesterConfig(eps=args.eps, samples=8, calibration_runs=args.calibration_runs, seed=args.seed)
    s = empirical_sample_complexity(p, adversary, cfg, trials=args.trials)
    out = {
        "dim": p.dim,
        "eps": args.eps,
        "adversary": args.adversary,
        "adversary_l1": l1_distance(p, adversary),
        "samples": s,
    }
    return json.dumps(out)


def cmd_bs_tail(args):
    bound = bs_flatness_tail_bound(args.n, args.m, args.c, args.C)
    return json.dumps({"n": args.n, "m": args.m, "c": args.c, "C": args.C, "bound": bound})


# -- parser -----------------------------------------------------------------


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config FILE as --key value flags (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise InvalidParameterError("--config needs a file path")
    path = Path(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    injected: list[str] = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        injected += [f"--{key.strip().replace('_', '-')}", value.strip().strip('"')]
    # subcommand (and any positionals) stay in front; injected defaults before
    # explicit flags so that explicit flags override them
    head = rest[:1]
    return head + injected + rest[1:]


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line (subparsers inherit the class)."""

    def error(self, message):
        raise InvalidParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="certbound")
    parser.add_argument("--version", action="version", version=__version__)
    # Sweeps run serially; `threads` is no option.  perfbench/worker.py still
    # records parse_args([...]).threads; this line goes at the next change to
    # the benchmark.
    parser.set_defaults(threads=1)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", help="write result to this file (and a manifest beside it)")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    def ensemble_args(sp):
        sp.add_argument("--ensemble", choices=["iqp", "haar", "rcs", "boson"], required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--m", type=int, default=0, help="modes (boson only)")
        sp.add_argument("--depth", type=int, default=0, help="gate count (rcs only)")
        sp.add_argument("--instances", type=int, default=1000)

    sp = sub.add_parser("norms", help="quasi-norms and entropies of a distribution file")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--eps", type=_finite_float, default=0.0)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("bounds", help="evaluate a certification sample-complexity bound")
    sp.add_argument(
        "--kind",
        default="vv_lower",
        choices=list(_BOUNDS),
    )
    sp.add_argument("--eps", type=_finite_float, required=True)
    for dest, (type_, default) in _BOUND_FLAGS.items():
        sp.add_argument(f"--{dest.replace('_', '-')}", dest=dest, type=type_, default=default)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("simulate", help="write one instance's output distribution")
    sp.add_argument("ensemble", choices=["iqp", "haar", "rcs", "boson"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--depth", type=int, default=0)
    sp.add_argument("--csv", action="store_true", help="boson only: occupation,probability CSV")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("moments", help="Monte-Carlo second-moment estimate")
    ensemble_args(sp)
    common(sp)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("tail-check", help="min-entropy tail bound verification")
    ensemble_args(sp)
    sp.add_argument("--delta", type=_finite_float, required=True)
    common(sp)
    sp.set_defaults(func=cmd_tail_check)

    sp = sub.add_parser("anticoncentration", help="anti-concentration vs Paley-Zygmund floor")
    ensemble_args(sp)
    sp.add_argument("--alpha", type=_finite_float, required=True)
    common(sp)
    sp.set_defaults(func=cmd_anticoncentration)

    sp = sub.add_parser("certify", help="run the identity test on a samples file")
    sp.add_argument("--target", required=True)
    sp.add_argument("--samples", required=True)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--calibration-runs", dest="calibration_runs", type=int, default=300)
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("complexity", help="empirical sample-complexity search")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--adversary", choices=sorted(ADVERSARIES), default="pairwise_shift")
    sp.add_argument("--distance", type=_finite_float, required=True)
    sp.add_argument("--trials", type=int, default=300)
    sp.add_argument("--calibration-runs", dest="calibration_runs", type=int, default=300)
    common(sp)
    sp.set_defaults(func=cmd_complexity)

    sp = sub.add_parser("bs-tail", help="explicit flatness tail bound for boson sampling")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--c", type=_finite_float, default=1.0)
    sp.add_argument("--C", type=_finite_float, default=0.0)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_bs_tail)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help, --version
            return 0
        args._started = datetime.now(timezone.utc).isoformat()
        _emit(args, args.func(args))
        return 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
