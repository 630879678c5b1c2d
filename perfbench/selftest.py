"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the per-layer
ones, all with no failed command; that a run whose outputs are damaged
before their checks (run.py --corrupt, see checks.corrupt) has every check
fail, so that the failed fraction is non-zero; and that run.py refuses,
without printing a result, to run where there is no certbound source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main() -> int:
    problems = []

    def expect(cond, msg):
        print(("ok    " if cond else "FAIL  ") + msg)
        if not cond:
            problems.append(msg)

    wanted = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        for w in (w["name"] for w in BENCHMARK["workloads"]):
            common = ["--workload", w, "--seed", "7", "--seconds", "1", "--tiny"]
            for trace in (0, 1):
                rc, line = run(*common, "--trace", str(trace), "--record", str(tmp / f"{w}-{trace}.json"))
                got = {k: v["unit"] for k, v in (line or {}).get("metrics", {}).items()}
                expect(rc == 0 and got == wanted[trace], f"{w} --trace {trace}: emits every metric with its unit")
                expect(rc == 0 and line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                       f"{w} --trace {trace}: no command failed")
            record = tmp / f"{w}-corrupt.json"
            rc, line = run(*common, "--trace", "0", "--corrupt", "--record", str(record))
            expect(rc == 0 and line["failed"] > 0, f"{w} corrupted: failed_frac = {line['failed'] / line['attempted']:.2f}")
            for check, (passed, failed) in json.loads(record.read_text())["checks"].items():
                expect(passed == 0 and failed > 0, f"{w} corrupted: check {check} failed {failed} of {passed + failed}")

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, line = run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=bare, script=bare / HERE.name / "run.py")
        expect(rc != 0 and line is None, f"without src/: exit code {rc}, no result printed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
