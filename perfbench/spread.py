"""Run-to-run spread of the end-to-end metrics, and the comparison of two sets of runs.

    python3 perfbench/spread.py --workloads sweep bigvec --seeds 1-10 --out .perfbench/spread-a.json
    python3 perfbench/spread.py --compare .perfbench/spread-a.json .perfbench/spread-b.json

The first form runs run.py once per workload and seed, one run at a time,
with BENCHMARK.json's run_seconds, and prints for each end-to-end metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  A spread is
marked when it exceeds a third of the metric's bound (setup_s excepted).
The second form compares the medians of two such files: a metric fails
when the second median is worse than the first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads, seed_list, seconds) -> dict:
    values: dict = {}
    for w in workloads:
        for s in seed_list:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(s), "--seconds", str(seconds),
                    "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
            elapsed = time.perf_counter() - t0
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{w} seed {s}: {line['failed']}/{line['attempted']} failed", file=sys.stderr)
            for name, m in line["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {s} ({elapsed:.1f} s): " + ", ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                  file=sys.stderr, flush=True)
    return values


def summarize(values: dict) -> bool:
    steady = True
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = BOUNDS[name]["bound"] / 3
            flag = "" if name == "setup_s" or spread <= limit else "  > bound/3"
            steady &= not flag
            print(f"{w:8} {name:12} n={len(vals):2} median={med:10.4f} spread={spread:6.3f} (bound/3 {limit:.3f}){flag}")
    return steady


def compare(a: dict, b: dict) -> bool:
    ok = True
    for w in a:
        for name, vals in a[w].items():
            m1, m2 = statistics.median(vals), statistics.median(b[w][name])
            bound = BOUNDS[name]["bound"]
            worse = (m2 - m1) / m1 if BOUNDS[name]["better"] == "lower" else (m1 - m2) / m1
            flag = "" if worse <= bound else "  WORSE than bound"
            ok &= not flag
            print(f"{w:8} {name:12} {m1:10.4f} -> {m2:10.4f}  change {worse:+.3f} (bound {bound}){flag}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--out", type=Path, help="write the collected values here as JSON")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    values = collect(args.workloads, args.seeds, args.seconds)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")
    return 0 if summarize(values) else 1


if __name__ == "__main__":
    sys.exit(main())
