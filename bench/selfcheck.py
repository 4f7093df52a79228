"""Smoke test of the benchmark itself.

Usage (from the root of a randrefine checkout):

    python3 bench/selfcheck.py

Runs one short run of every workload in ``BENCHMARK.json``, untraced and
traced, and asserts that

* the last output line is the result object, with every end-to-end metric
  (untraced) or per-layer metric (traced) of ``BENCHMARK.json`` under its
  name and unit, and no failed job;
* a job whose output is deliberately perturbed (``--corrupt-first-job``)
  fails its correctness check and lowers ``ok_ratio``;
* without the randrefine sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds and 1 otherwise, naming each failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bench/run.py"]
SEED = "7"
SECONDS = "1"


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, *RUN, "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(workload, trace)
            result = last_json(done.stdout)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0 or result is None:
                problems.append(f"{label}: exit {done.returncode}, stderr {done.stderr[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            if units != expected[trace]:
                diff = set(units.items()) ^ set(expected[trace].items())
                problems.append(f"{label}: metric names/units differ: {sorted(diff)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed jobs: "
                                + "; ".join(ln for ln in done.stdout.splitlines()
                                            if ln.startswith("failed job")))
        done = run(workload, 0, "--corrupt-first-job")
        result = last_json(done.stdout)
        if result is None or result["failed"] < 1 or result["correct"] \
                or result["metrics"]["ok_ratio"]["value"] >= 1.0:
            problems.append(f"{workload}: a corrupted job was not counted as failed")
        print(f"checked {workload}", flush=True)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec["workloads"][0]["name"], 0, cwd=Path(bare))
        if done.returncode == 0 or last_json(done.stdout) is not None:
            problems.append("without sources: expected a non-zero exit and no result")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
