"""randrefine benchmark: end-to-end and per-layer metrics on four workloads.

Usage (from the root of a randrefine checkout):

    python3 bench/run.py --workload exact-mixed --seed 1 --seconds 25 --trace 0

``--trace 0`` times the jobs untraced and prints the end-to-end metrics.
``--trace 1`` runs each job twice, untraced and then traced with a span
around every call the benchmark makes into a randrefine layer, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it give the environment, every metric by name and unit, the tail
percentile with its job count, absent layers and the span attribution; the
full record (spans included) goes to ``.bench_out/``.

The load is a closed loop: one client, one job at a time, in one process.
A run executes a job count fixed by ``--seconds`` and the workload's
nominal job time, so a seed always runs the same jobs.  Every job checks
its own output; a failed check, an exception, a refusal, a timeout or a
non-zero CLI exit counts as a failed job.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# A run stops starting jobs after this many multiples of --seconds, so a
# slow machine still ends well inside its time limit.
WALL_CAP_FACTOR = 4.0
PROBE_DEADLINE_S = 5.0
# CLI calls are killed once the run is this old, so it ends within 180 s.
RUN_DEADLINE_S = 150.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> (unit, how it is computed from the trace).
# "span": summed span time per traced job; "count": summed count per traced
# job; "mean": mean of the counted 0/1 values; "max": largest counted value;
# "probe": set by the workload's probe.
LAYER_METRICS = {
    "cli.import_s": ("s", "span"),
    "cli.classify_s": ("s", "span"),
    "cli.solve_s": ("s", "span"),
    "cli.iterate_s": ("s", "span"),
    "cli.verify_s": ("s", "span"),
    "cli.perpetuity_s": ("s", "span"),
    "cli.solve_expansive_s": ("s", "span"),
    "cli.perpetuity_expansive_s": ("s", "span"),
    "cli.output_bytes": ("bytes", "count"),
    "measure.classify_s": ("s", "span"),
    "measure.classify_calls": ("count", "count"),
    "closedform.manufacture_s": ("s", "span"),
    "closedform.fourier_s": ("s", "span"),
    "spectrum.series_shared_s": ("s", "span"),
    "spectrum.series_walk_s": ("s", "span"),
    "spectrum.series_mc_s": ("s", "span"),
    "spectrum.series_terms": ("count", "count"),
    "spectrum.series_converged_ratio": ("ratio", "mean"),
    "spectrum.forward_factor_s": ("s", "span"),
    "spectrum.invert_s": ("s", "span"),
    "spectrum.invert_points": ("count", "count"),
    "spectrum.budget_probe_s": ("s", "probe"),
    "perpetuity.draw_s": ("s", "span"),
    "perpetuity.draws": ("count", "count"),
    "perpetuity.charfn_s": ("s", "span"),
    "perpetuity.cdf_s": ("s", "span"),
    "picard.iterate_s": ("s", "span"),
    "picard.sweeps": ("count", "count"),
    "picard.sweep_s": ("s", "derived"),
    "picard.converged_ratio": ("ratio", "mean"),
    "picard.differentiate_s": ("s", "span"),
    "picard.cdf_residual_s": ("s", "span"),
    "picard.stall_probe_sweeps": ("count", "probe"),
    "verify.residual_s": ("s", "span"),
    "verify.finite_depth_s": ("s", "span"),
    "verify.oracle_err": ("abs", "max"),
    "trace.overhead_ratio": ("ratio", "derived"),
    "trace.unattributed_ratio": ("ratio", "derived"),
}

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-first-job", action="store_true",
                        help="self-check only: perturb the first job's output so "
                             "that its correctness check must fail")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(nproc: int, workload: str, seed: int, jobs: int) -> dict:
    import numpy as np

    try:
        import scipy
    except ImportError:
        scipy = None
    env = {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "jobs": jobs,
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _openblas_threads()
    return env


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "randrefine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln and ".so" in ln})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_job(wl, problem, ctx, corrupt=False):
    """Time one job and check it.  Returns (seconds, error or None, output)."""
    start = perf_counter()
    try:
        out = wl.run(problem, ctx, corrupt)
        elapsed = perf_counter() - start
        wl.check(problem, out)
    except Exception as exc:  # every failure is counted, none ends the run
        elapsed = perf_counter() - start
        return elapsed, f"{type(exc).__name__}: {exc}", None
    return elapsed, None, out


def tail(times):
    """Job time at the highest percentile with TAIL_BEYOND jobs beyond it.

    With fewer than TAIL_BEYOND + 1 jobs no such percentile exists and the
    slowest job is reported, as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def same_output(a, b) -> bool:
    import numpy as np

    va, vb = np.asarray(a["values"]), np.asarray(b["values"])
    scale = float(np.max(np.abs(va), initial=0.0)) + 1e-300
    return va.shape == vb.shape and float(np.max(np.abs(va - vb), initial=0.0)) <= 1e-12 * scale


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "randrefine" / "__init__.py").is_file():
        print(f"error: no randrefine sources under {SRC}; run from a randrefine checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)

    import randrefine  # noqa: F401  (imported from the checkout, under the thread caps)
    import workloads
    from spans import Tracer

    if not Path(randrefine.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: randrefine resolved to {randrefine.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    per_job = wl.nominal_job_s * (2.0 if args.trace else 1.0)
    jobs = max(1, int(args.seconds / per_job))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _measure(args, wl, jobs, work, nproc, workloads, Tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl, jobs, work, nproc, workloads, Tracer) -> int:
    env = environment(nproc, args.workload, args.seed, jobs)
    print("environment " + json.dumps(env, sort_keys=True))
    deadline = STARTED + RUN_DEADLINE_S
    plain = workloads.Context(work, dict(os.environ), Tracer(False), deadline)
    traced = workloads.Context(work, dict(os.environ), Tracer(True), deadline)

    # set-up: a fresh interpreter's import, plus generating the inputs
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", "import randrefine"],
                              env=plain.env, cwd=work, capture_output=True, timeout=120)
        if done.returncode != 0:
            print(f"error: import randrefine failed: {done.stderr.decode()[-500:]}",
                  file=sys.stderr)
            return 1
        inputs = wl.generate(args.seed, jobs, plain)
        setup_times.append(perf_counter() - start)

    cap = WALL_CAP_FACTOR * args.seconds
    record = {"environment": env, "args": vars(args), "setup_s": setup_times}
    failures = []
    if not args.trace:
        times = []
        start = perf_counter()
        for k in range(jobs):
            if perf_counter() - start > cap:
                print(f"warning: wall cap {cap:g} s reached after {k} of {jobs} jobs")
                break
            elapsed, error, _ = run_job(wl, inputs[k], plain, args.corrupt_first_job and k == 0)
            times.append(elapsed)
            if error:
                failures.append((k, error))
        wall = perf_counter() - start
        attempted = len(times)
        ok = attempted - len(failures)
        job_tail, percentile = tail(times)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": statistics.median(setup_times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": job_tail,
            "jobs_per_s": ok / wall,
            "ok_ratio": ok / attempted,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"jobs {attempted} in {wall:.3f} s; job_tail_s is p{percentile:.1f} "
              f"of {attempted} jobs; fail_ratio {len(failures) / attempted:.4f}")
        record.update(times=times, wall=wall, tail_percentile=percentile)
    else:
        metrics, attempted, notes = _traced(args, wl, jobs, inputs, plain, traced,
                                            failures, workloads)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        record.update(notes)
        traced.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                           {"environment": env, "notes": notes})

    for k, error in failures:
        print(f"failed job {k}: {error}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(result=result, failures=failures)
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def _traced(args, wl, jobs, inputs, plain, traced, failures, workloads):
    """Run each job untraced and then traced; derive the per-layer metrics."""
    tracer = traced.tracer
    plain_times, traced_times, job_ids, walls = [], [], [], {}
    attempted = 0
    cap = WALL_CAP_FACTOR * args.seconds
    start = perf_counter()
    for k in range(jobs):
        if perf_counter() - start > cap:
            print(f"warning: wall cap {cap:g} s reached after {k} of {jobs} jobs")
            break
        corrupt = args.corrupt_first_job and k == 0
        elapsed, error, reference = run_job(wl, inputs[k], plain, corrupt)
        plain_times.append(elapsed)
        attempted += 1
        if error:
            failures.append((k, error))
        if wl.pre_traced:
            tracer.job = f"{k}-pre"
            try:
                wl.pre_traced(traced)
            except Exception as exc:  # counted as a failed job, like any other
                failures.append((f"{k}-pre", f"{type(exc).__name__}: {exc}"))
        tracer.job = k
        elapsed, error, out = run_job(wl, inputs[k], traced, corrupt)
        traced_times.append(elapsed)
        walls[k] = elapsed
        job_ids.append(k)
        attempted += 1
        if error:
            failures.append((f"{k}-traced", error))
        elif reference is not None and not same_output(reference, out):
            failures.append((f"{k}-traced", "traced output differs from untraced output"))
        if wl.replay:
            tracer.job = f"{k}-replay"
            t0 = perf_counter()
            try:
                wl.replay(inputs[k], traced)
            except Exception as exc:  # counted as a failed job, like any other
                failures.append((f"{k}-replay", f"{type(exc).__name__}: {exc}"))
            walls[f"{k}-replay"] = perf_counter() - t0
            attempted += 1
    tracer.job = "probe"
    probe = wl.probe(inputs, traced, PROBE_DEADLINE_S) if wl.probe else {}
    tracer.job = None

    n = len(job_ids)
    metrics, absent = {}, []
    for name, (unit, how) in LAYER_METRICS.items():
        span = name[:-2] if name.endswith("_s") else name
        if how == "span":
            durations = [s["end"] - s["start"] for s in tracer.spans
                         if s["name"] == span and s["job"] != "probe"]
            seen, value = bool(durations), sum(durations) / n
        elif how == "count":
            values = [c["value"] for c in tracer.counts if c["name"] == name]
            seen, value = bool(values), sum(values) / n
        elif how == "mean":
            values = [c["value"] for c in tracer.counts if c["name"] == name]
            seen, value = bool(values), (sum(values) / len(values) if values else 0.0)
        elif how == "max":
            values = [c["value"] for c in tracer.counts if c["name"] == name]
            seen, value = bool(values), max(values, default=0.0)
        elif how == "probe":
            seen, value = name in probe, float(probe.get(name, 0.0))
        else:
            seen, value = True, 0.0
        if not seen:
            absent.append(name)
        metrics[name] = float(value)

    sweeps = sum(c["value"] for c in tracer.counts if c["name"] == "picard.sweeps")
    iterate = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "picard.iterate")
    if sweeps:
        metrics["picard.sweep_s"] = iterate / sweeps
    else:
        absent.append("picard.sweep_s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_times)
                                       / statistics.median(plain_times))
    covered = sum(tracer.top_level_seconds(j) for j in walls)
    total = sum(walls.values())
    metrics["trace.unattributed_ratio"] = max(0.0, total - covered) / total

    print(f"traced jobs {n}; untraced p50 {statistics.median(plain_times):.4f} s, "
          f"traced p50 {statistics.median(traced_times):.4f} s")
    for j, wall in walls.items():
        covered_j = tracer.top_level_seconds(j)
        print(f"attribution job {j}: wall {wall:.4f} s, spans {covered_j:.4f} s, "
              f"unattributed {wall - covered_j:.4f} s")
    if absent:
        print(f"absent on {args.workload} (no such call in this workload, reported as 0): "
              + ", ".join(absent))
    for key, value in probe.items():
        print(f"probe {key}: {value}")
    notes = {
        "plain_times": plain_times,
        "traced_times": traced_times,
        "walls": {str(k): v for k, v in walls.items()},
        "absent": absent,
        "probe": probe,
    }
    return metrics, attempted, notes


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
