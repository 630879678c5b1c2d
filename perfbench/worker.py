"""One benchmark process, started by run.py.

It imports certbound from the checkout's `src/`, writes the workload's
inputs, prints `ready`, and then (unless --setup-only) runs the workload's
command list in a closed loop through `certbound.cli.main(argv)` until
--seconds have passed, checking every output after its command.  Timing
covers the command only, not its check.  Given --spans, every second pass
is traced and the spans are written there at the end.  The pass results,
the environment and the peak RSS go to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed, corrupt as damage, run_check
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded (None if not found)."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(cli) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cli_workers": cli.build_parser().parse_args(["bs-tail", "--n", "2", "--m", "2"]).threads,
        "blas_threads": blas_threads(),
        "CERTBOUND_THREADS": os.environ.get("CERTBOUND_THREADS"),
    }


def run_pass(plan, out_dir: Path, tracer, corrupt: bool, tally: dict):
    """Run one pass of the command list; return the time of each command and of all checks."""
    from certbound import cli

    out_dir.mkdir()
    times, check_s = [], 0.0
    for cmd in plan(out_dir):
        error = None
        gc.collect()  # garbage left by earlier commands and checks is not this command's cost
        if tracer:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(list(cmd.argv))
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.recording = False
        times.append(dt)
        if rc == 0:
            try:
                if corrupt:
                    damage(cmd)
                t0 = time.perf_counter()
                run_check(cmd)
                check_s += time.perf_counter() - t0
            except CheckFailed as exc:
                error = f"check {cmd.check}: {exc}"
            except Exception:  # malformed output the check did not foresee
                error = f"check {cmd.check}: {traceback.format_exc()}"
        else:
            error = error or f"exit code {rc}"
        tally.setdefault(cmd.check, [0, 0])[error is not None] += 1  # [passed, failed]
        if error:
            print(f"FAILED {' '.join(cmd.argv)}: {error}", file=sys.stderr)
    shutil.rmtree(out_dir)
    return times, check_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path, help="trace every second pass and write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from certbound import cli

    if Path(cli.__file__).resolve().parent != SRC / "certbound":
        print(f"certbound imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    inputs = args.tmp / "inputs"
    inputs.mkdir(parents=True)
    plan = WORKLOADS[args.workload](args.seed, inputs, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer().install() if args.spans else None
    passes, tally = [], {}
    start = time.perf_counter()
    # with --trace 1, untraced and traced passes alternate, so that a drift in
    # the machine's speed does not show up as tracing overhead
    while len(passes) < 1 + bool(tracer) or time.perf_counter() - start < args.seconds:
        traced = bool(tracer) and len(passes) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        times, check_s = run_pass(plan, args.tmp / f"pass{len(passes)}", tracer if traced else None,
                                  args.corrupt, tally)
        record = {"command_s": times, "check_s": check_s, "traced": traced}
        if traced:
            record["layers"] = layer_metrics(tracer.spans[first_span:])
        passes.append(record)

    cmds = plan(args.tmp)
    result = {
        "commands": [" ".join(cmd.argv[:-2]) for cmd in cmds],
        "families": [cmd.family for cmd in cmds],
        "passes": passes,
        "checks": tally,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(cli),
    }
    if tracer:
        tracer.write(args.spans)
        result["spans"] = len(tracer.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
