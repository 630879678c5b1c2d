"""Benchmark of the certbound CLI: run one workload, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere in a checkout that holds `src/certbound`; it imports
the package from there.  Each workload (see workloads.py) is a fixed list
of CLI commands, made from --seed, that one client runs one after another
in a closed loop through `certbound.cli.main(argv)` in a fresh process,
repeating the list until --seconds have passed.  Every output is checked
(see checks.py); a command that exits non-zero or fails its check counts
as failed.

--trace 0 prints the end-to-end metrics:
  setup_s      median over 3 fresh processes of the time from process start
               until the workload's inputs exist (interpreter, imports of
               certbound, numpy and scipy, inputs made from the seed)
  wall_s       median time of one pass over the command list
  peak_rss_mb  peak RSS of the process that ran the passes

--trace 1 alternates untraced and traced passes (see spans.py) and prints
the per-layer metrics: medians over the traced passes, the command-family
times of the untraced passes (simulate_s, bounds_s, sweep_s, certify_s,
complexity_s; 0 where a workload has no such command) and trace.overhead,
the median traced pass time over the median untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is the failed fraction.
The seed, the environment (Python, numpy and scipy versions, nproc, the
CLI's default worker count, the BLAS thread count) and every pass are
recorded in .perfbench/results/, and the spans of a traced run beside them.
CLI outputs go to a temporary directory under .perfbench/ that is removed
at exit.  The workers run with CERTBOUND_THREADS unset, so the CLI uses its
default worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SETUP_ONLY_PROCESSES = 2  # plus the measuring process: 3 set-up times per run
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from spans import LAYER_UNITS  # noqa: E402
from workloads import FAMILIES, WORKLOADS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
FAMILY_NAMES = sorted(set(FAMILIES.values()))
PER_LAYER_UNITS = {**LAYER_UNITS, **{f: "s" for f in FAMILY_NAMES}, "trace.overhead": "ratio"}


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time, each in its own directory under tmp."""

    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "CERTBOUND_THREADS"}
        self.count = 0

    def run(self, *extra, seconds: float = 0.0, setup_only: bool = False):
        """Run one worker; return (setup seconds, result dict or None)."""
        a = self.args
        wdir = self.tmp / f"worker{self.count}"
        self.count += 1
        result = wdir / "result.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(seconds), "--tmp", str(wdir), "--result", str(result),
                *extra]
        if setup_only:
            argv.append("--setup-only")
        if a.tiny:
            argv.append("--tiny")
        if a.corrupt:
            argv.append("--corrupt")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, self.deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError("worker did not finish its set-up")
            proc.communicate(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s of the run's start") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup, None if setup_only else json.loads(result.read_text())


def _tally(res) -> tuple[int, int]:
    failed = sum(f for _, f in res["checks"].values())
    return sum(p for p, _ in res["checks"].values()) + failed, failed


def _median_wall(passes) -> float:
    return statistics.median(sum(p["command_s"]) for p in passes)


def _family_medians(res, passes) -> dict:
    def family_time(p, f):
        return sum(t for t, fam in zip(p["command_s"], res["families"]) if fam == f)

    return {f: statistics.median(family_time(p, f) for p in passes) for f in FAMILY_NAMES}


def end_to_end(runner: Runner, seconds: float):
    setups = [runner.run(setup_only=True)[0] for _ in range(SETUP_ONLY_PROCESSES)]
    setup, res = runner.run(seconds=seconds)
    setups.append(setup)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": _median_wall(res["passes"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, res, {"setup_samples_s": setups, "families_s": _family_medians(res, res["passes"]), "run": res}


def per_layer(runner: Runner, seconds: float, spans_path: Path):
    _, res = runner.run("--spans", str(spans_path), seconds=seconds)
    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"] if not p["traced"]]
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in LAYER_UNITS}
    families = _family_medians(res, plain)
    metrics.update(families)
    metrics["trace.overhead"] = _median_wall(traced) / _median_wall(plain)
    return metrics, res, {"families_s": families, "run": res, "spans_file": str(spans_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="where to write the run record (default: under .perfbench/results/)")
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", action="store_true", help="damage every output before its check (self-test)")
    args = ap.parse_args(argv)
    # a terminated run still stops its worker and removes its temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "certbound" / "__init__.py").is_file():
        print(f"no certbound package under {ROOT / 'src'}; run from a certbound checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record_path = args.record or results_dir / f"{stem}-trace{args.trace}.json"
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(args, tmp)
        if args.trace:
            metrics, res, record = per_layer(runner, args.seconds, results_dir / f"{stem}.spans.jsonl")
        else:
            metrics, res, record = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = _tally(res)
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    record = {"args": {k: str(v) for k, v in vars(args).items()}, "seed": args.seed, "env": res["env"],
              "metrics": metrics, "attempted": attempted, "failed": failed, "checks": res["checks"], **record}
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k in ("seed", "env", "checks", "families_s")}
    print(f"{args.workload}: failed {failed}/{attempted}; {json.dumps(summary)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
