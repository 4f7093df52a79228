"""Workloads of the randrefine benchmark: seeded inputs and checked jobs.

Each workload turns a seed into a list of job inputs (``generate``), runs
one job on one input (``run``, the timed part) and checks the job's output
(``check``, untimed).  A job drives randrefine only from outside: through
CLI subprocesses or through public functions of ``measure``,
``closedform``, ``spectrum``, ``perpetuity``, ``picard`` and ``verify``.

Job sizes, atom counts and the mix of scales depend on the job index only,
never on the seed; the seed picks shifts, fixed points and forcing terms.
So every seed gives the same workload shape, and a claim tuned on one seed
can be rechecked on another.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import randrefine as rr
from spans import Tracer


class JobFailed(Exception):
    """The job ran, but its output failed a correctness check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise JobFailed(message)


@dataclass
class Context:
    """What a job needs besides its input: where to write and how to trace."""

    work: Path
    env: dict
    tracer: Tracer
    deadline: float  # perf_counter() value after which CLI calls are refused


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(k: int) -> float:
    """Point of a golden-ratio sequence in [0, 1): any run of consecutive
    jobs covers the size range evenly, whatever the job count."""
    return ((k + 1) * _GOLDEN) % 1.0


def _odd_size(k: int, lo: int, hi: int) -> int:
    return int(lo + (hi - lo) * _spread(k)) | 1


def _rng(seed: int, workload: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, k])


# Half-integer fixed points and shifts: coarse enough that merged path
# states collide exactly in floating point.
_LATTICE = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])


def solve(measure, g, mass, xs, strategy, eps, tracer, n_max=60):
    """``solve_spectrum``, or its public parts under spans when tracing.

    The traced branch assembles the same regime formula as
    ``solve_spectrum`` from ``sum_series_grid``, ``ClosedFormFn.fourier`` and
    the forward-limit factor, so each part gets its own span.  The traced
    run compares both branches on the same input.
    """
    with tracer.span("measure.classify"):
        report = rr.classify_regime(measure)
    tracer.count("measure.classify_calls", 1)
    if not tracer.enabled:
        spec = rr.solve_spectrum(
            measure, g, mass, xs, strategy, eps=eps, n_max=n_max, regime_report=report
        )
    else:
        if isinstance(strategy, rr.MonteCarloStrategy):
            route = "mc"
        elif len(set(measure.scales.tolist())) == 1:
            route = "shared"
        else:
            route = "walk"
        with tracer.span(f"spectrum.series_{route}"):
            series, trunc = rr.sum_series_grid(measure, g, xs, strategy, eps, n_max)
        with tracer.span("closedform.fourier"):
            ghat = g.fourier(xs)
        if report.regime is rr.Regime.LOG_CONTRACTIVE:
            values = series + ghat
        elif report.shift_degenerate:
            values = mass + series + ghat
        else:
            with tracer.span("spectrum.forward_factor"):
                if isinstance(strategy, rr.MonteCarloStrategy):
                    with tracer.span("perpetuity.charfn"):
                        est = rr.estimate_charfn(
                            measure, xs, strategy.sample_count, rng_seed=strategy.seed
                        )
                    tracer.count("perpetuity.draws", strategy.sample_count * est.depth)
                    factor = est.charfn_values
                else:
                    factor = rr.forward_charfn_product(measure, xs)
            values = mass * factor + series + ghat
        spec = rr.Spectrum(x_grid=xs, values=values, mass=mass, truncation=trunc)
    tracer.count("spectrum.series_terms", spec.truncation.terms_used)
    tracer.count("spectrum.series_converged_ratio", float(spec.truncation.converged))
    return spec


def _invert(spec, ts, tracer):
    with tracer.span("spectrum.invert"):
        recovered = rr.invert_spectrum(spec, ts)
    tracer.count("spectrum.invert_points", len(spec.x_grid) * len(ts))
    return recovered


def _manufacture(measure, f, tracer):
    with tracer.span("closedform.manufacture"):
        return rr.manufacture_inhomogeneity(measure, f)


@dataclass(frozen=True)
class Problem:
    measure: rr.RandomAffineMeasure
    f: rr.ClosedFormFn
    xs: np.ndarray | None = None  # frequency grid of a spectral solve
    mc_seed: int = 0
    step: float = 0.0  # Picard grid step


# ---------------------------------------------------------------------------
# exact-mixed: merged state walk of a contractive mixed-scale measure
# ---------------------------------------------------------------------------

# (scale, weight).  The maps with scales 0.5 and 0.75 share a fixed point, so
# they commute and merged path states grow about 2.6x per depth, as in the
# measure [(0.5,1,.5),(0.25,-1,.25),(0.75,0.5,.25)].
EXACT_ATOMS = ((0.5, 0.5), (0.25, 0.25), (0.75, 0.25))
# Frequency step pi/10: replicas of f sit 20 apart, clear of the t window.
EXACT_DX = math.pi / 10.0
EXACT_T = np.linspace(-8.0, 8.0, 1601)
EXACT_EPS = 3e-5
EXACT_WIDTH = 1.1
EXACT_ORACLE_BOUND = 1e-6
FINITE_DEPTH = 8
FINITE_DEPTH_PROBES = (0.37, 1.3, 2.9)
FINITE_DEPTH_BOUND = 1e-10
# The over-budget case: the mixed-scale exact solve at the CLI defaults.
BUDGET_PROBE_ATOMS = ((0.5, 1.0, 0.5), (0.25, -1.0, 0.25), (0.75, 0.5, 0.25))


def _exact_generate(seed, count, ctx):
    problems = []
    for k in range(count):
        rng = _rng(seed, 1, k)
        shared, odd = rng.choice(_LATTICE, 2, replace=False)
        atoms = [
            (l, float((odd if l == 0.25 else shared) * (l - 1.0)), p)
            for l, p in EXACT_ATOMS
        ]
        # Zero total mass, as the contractive regime requires.  Width and
        # amplitude stay fixed: they set the depth at which the series
        # terms drop below EXACT_EPS, so the job cost depends on the size
        # schedule, not on the seed.
        mu = float(rng.uniform(-1.5, 0.5))
        f = rr.gaussian(mu, EXACT_WIDTH) - rr.gaussian(mu + float(rng.uniform(1.0, 2.0)), EXACT_WIDTH)
        n = _odd_size(k, 49, 113)
        xs = rr.symmetric_grid(EXACT_DX * (n - 1) / 2, n)
        problems.append(Problem(rr.build_measure(atoms), f, xs))
    return problems


def _exact_run(p: Problem, ctx: Context, corrupt: bool):
    tr = ctx.tracer
    g = _manufacture(p.measure, p.f, tr)
    spec = solve(p.measure, g, 0.0, p.xs, rr.EXACT, EXACT_EPS, tr)
    if corrupt:
        spec = replace(spec, values=spec.values * 1.01)
    recovered = _invert(spec, EXACT_T, tr)
    with tr.span("verify.residual"):
        residual = rr.residual_time(p.measure, recovered, g)
    with tr.span("verify.finite_depth"):
        depth_residual = rr.finite_depth_residual(
            p.measure, p.f, g, FINITE_DEPTH, FINITE_DEPTH_PROBES
        )
    oracle = float(np.max(np.abs(recovered.values - p.f(EXACT_T))))
    tr.count("verify.oracle_err", oracle)
    return {
        "values": recovered.values,
        "truncation": spec.truncation,
        "residual": residual,
        "depth_residual": depth_residual,
        "oracle": oracle,
    }


def _exact_check(p: Problem, out: dict) -> None:
    check(out["truncation"].converged, f"series not converged: {out['truncation']}")
    r = out["residual"]
    check(r.passes(), f"time residual {r.sup_residual:.3e} > budget {r.tolerance_budget:.3e}")
    check(out["oracle"] <= EXACT_ORACLE_BOUND,
          f"error vs manufactured f {out['oracle']:.3e} > {EXACT_ORACLE_BOUND:g}")
    check(out["depth_residual"] <= FINITE_DEPTH_BOUND,
          f"depth-{FINITE_DEPTH} identity residual {out['depth_residual']:.3e}")


def _exact_probe(inputs, ctx: Context, deadline: float) -> dict:
    """Run the over-budget solve in a child under ``deadline`` seconds."""
    script = Path(__file__).with_name("budget_probe.py")
    atoms = json.dumps(BUDGET_PROBE_ATOMS)
    with ctx.tracer.span("spectrum.budget_probe"):
        start = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, str(script), atoms],
                cwd=ctx.work, env=ctx.env, capture_output=True, text=True,
                timeout=deadline,
            )
            outcome = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else (
                f"exit {done.returncode}: {done.stderr.strip()[-200:]}"
            )
        except subprocess.TimeoutExpired:
            outcome = f"timeout after {deadline:g} s"
        elapsed = perf_counter() - start
    return {"spectrum.budget_probe_s": elapsed, "budget_probe_outcome": outcome}


# ---------------------------------------------------------------------------
# mc-mixed: Monte Carlo series of an expansive mixed-scale measure
# ---------------------------------------------------------------------------

MC_ATOMS = ((2.0, 0.5), (3.0, 0.25), (4.0, 0.25))
MC_SAMPLES = 500
MC_X_MAX = 8.0
MC_N_MAX = 60
MC_SIGMAS = 4.0
MC_EXACT_DEPTH = 16


def _mc_generate(seed, count, ctx):
    problems = []
    for k in range(count):
        rng = _rng(seed, 2, k)
        while True:  # shifts without a common fixed point
            shifts = rng.choice(_LATTICE, 3)
            measure = rr.build_measure(
                [(l, float(m), p) for (l, p), m in zip(MC_ATOMS, shifts)]
            )
            if rr.classify_regime(measure).forward_series_condition:
                break
        mu, c = rng.uniform(-1.5, 1.5, 2)
        f = (float(rng.uniform(0.5, 1.5)) * rr.gaussian(mu, float(rng.uniform(0.7, 1.2)))
             + float(rng.uniform(0.5, 1.5)) * rr.triangle(c, float(rng.uniform(0.8, 1.6))))
        n = _odd_size(k, 17, 81)
        problems.append(Problem(measure, f, rr.symmetric_grid(MC_X_MAX, n),
                                mc_seed=int(rng.integers(2**31))))
    return problems


def _mc_run(p: Problem, ctx: Context, corrupt: bool):
    tr = ctx.tracer
    g = _manufacture(p.measure, p.f, tr)
    strategy = rr.MonteCarloStrategy(sample_count=MC_SAMPLES, seed=p.mc_seed)
    spec = solve(p.measure, g, p.f.mass(), p.xs, strategy, 1e-10, tr, n_max=MC_N_MAX)
    values = spec.values * (1.1 if corrupt else 1.0)
    tr.count("verify.oracle_err", float(np.max(np.abs(values - p.f.fourier(p.xs)))))
    return {"values": values, "g": g}


def mc_tolerance(p: Problem, g) -> np.ndarray:
    """``MC_SIGMAS`` standard errors of the Monte Carlo transform, per frequency.

    The error model is ``1/sqrt(samples)`` times the root mean square of
    each summand, added over summands without cancellation, which bounds
    correlated errors too.  The forward-limit factor contributes ``|mass|``
    (``|exp(i x Z)| = 1``); depth n contributes ``sqrt(E|ghat(x / P_n)|^2)``,
    averaged exactly over the law of the scale product ``P_n``, and beyond
    ``MC_EXACT_DEPTH`` the bound ``|ghat(y)| <= |y| |t g|_1``.
    """
    lo, hi = g.support()
    t = np.linspace(lo, hi, 20001)
    first_moment = float(np.abs(t * g(t)).sum() * (t[1] - t[0]))
    log_fact = np.array([math.lgamma(v + 1.0) for v in range(MC_N_MAX + 1)])
    (l_a, w_a), (l_b, w_b), (l_c, w_c) = MC_ATOMS
    x = p.xs[:, None]
    total = np.zeros(len(p.xs))
    for n in range(1, MC_N_MAX + 1):
        i, j = np.array([(i, j) for i in range(n + 1) for j in range(n + 1 - i)]).T
        k = n - i - j  # atom counts of each product P_n = l_a^i l_b^j l_c^k
        prob = np.exp(log_fact[n] - log_fact[i] - log_fact[j] - log_fact[k]
                      + i * math.log(w_a) + j * math.log(w_b) + k * math.log(w_c))
        prod = l_a ** i * l_b ** j * l_c ** k
        if n <= MC_EXACT_DEPTH:
            square = np.abs(g.fourier(x / prod)) ** 2
        else:
            square = (np.abs(x) * first_moment / prod) ** 2
        total += np.sqrt((prob * square).sum(axis=1))
    return MC_SIGMAS * (abs(p.f.mass()) + total) / math.sqrt(MC_SAMPLES)


def _mc_check(p: Problem, out: dict) -> None:
    # at x = 0 every series term vanishes and the factor is exactly 1
    at_zero = out["values"][len(p.xs) // 2]
    check(abs(at_zero - p.f.mass()) <= 1e-9 * (1.0 + abs(p.f.mass())),
          f"transform at 0 is {at_zero:.6g}, mass is {p.f.mass():.6g}")
    err = np.abs(out["values"] - p.f.fourier(p.xs))
    tol = mc_tolerance(p, out["g"])
    worst = int(np.argmax(err / tol))
    check(err[worst] <= tol[worst],
          f"MC transform error {err[worst]:.3e} > {tol[worst]:.3e} at x={p.xs[worst]:.3f}")


# ---------------------------------------------------------------------------
# picard-fine: CDF-level sweeps on fine grids
# ---------------------------------------------------------------------------

# Atom counts alternate 2, 3 by job index; (scale, weight) per count.
PICARD_ATOMS = {
    2: ((0.5, 0.5), (0.75, 0.5)),
    3: ((0.25, 0.25), (0.5, 0.25), (0.75, 0.5)),
}
PICARD_WINDOW = (-10.0, 10.0)
PICARD_TOL = 1e-9
# Grid intervals across the window: steps from 4e-5 to 1e-4, below the
# step where today's discretisation floor (about step^2/16) meets the tol.
PICARD_INTERVALS = (200_000, 500_000)
PICARD_INNER = (-6.0, 6.0)
PICARD_DERIV_BOUND = 1e-3
PICARD_CDF_BOUND = 1e-7
# ROADMAP item 4's reproducer, run once per traced run: it stalls today.
STALL_PROBE = ((0.5, 0.0, 0.5), (0.5, -0.5, 0.5))


def _picard_generate(seed, count, ctx):
    problems = []
    for k in range(count):
        rng = _rng(seed, 3, k)
        layout = PICARD_ATOMS[2 + k % 2]
        shifts = rng.choice(_LATTICE / 2.0, len(layout))
        measure = rr.build_measure(
            [(l, float(m), p) for (l, p), m in zip(layout, shifts)]
        )
        mu, c = rng.uniform(-1.5, 1.5, 2)
        f = (float(rng.uniform(0.5, 1.5)) * rr.gaussian(mu, float(rng.uniform(0.7, 1.0)))
             + float(rng.uniform(-1.0, 1.0)) * rr.triangle(c, float(rng.uniform(0.8, 1.5))))
        lo, hi = PICARD_INTERVALS
        intervals = int(lo + (hi - lo) * _spread(k))
        step = (PICARD_WINDOW[1] - PICARD_WINDOW[0]) / intervals
        problems.append(Problem(measure, f, step=step))
    return problems


def _picard_run(p: Problem, ctx: Context, corrupt: bool):
    tr = ctx.tracer
    g = _manufacture(p.measure, p.f, tr)
    with tr.span("picard.iterate"):
        result = rr.picard_iterate(p.measure, g, PICARD_WINDOW, p.step, PICARD_TOL)
    tr.count("picard.sweeps", result.iterations)
    tr.count("picard.converged_ratio", float(result.converged))
    cdf = result.cdf
    if corrupt:
        cdf = replace(cdf, values=cdf.values * 1.01)
    with tr.span("picard.differentiate"):
        density = rr.differentiate(cdf)
    nodes = cdf.nodes
    inner = (nodes > PICARD_INNER[0]) & (nodes < PICARD_INNER[1])
    probes = nodes[inner][::997]
    with tr.span("picard.cdf_residual"):
        cdf_residual = rr.cdf_equation_residual(p.measure, cdf, g, probes)
    deriv_err = float(np.max(np.abs(density.values[inner] - p.f(nodes[inner]))))
    tr.count("verify.oracle_err", deriv_err)
    return {
        "values": density.values[inner][::97],
        "result": result,
        "cdf_residual": cdf_residual,
        "deriv_err": deriv_err,
    }


def _picard_check(p: Problem, out: dict) -> None:
    r = out["result"]
    check(r.converged, f"no convergence: {r.iterations} sweeps, last delta {r.final_delta:.3e}")
    check(out["deriv_err"] <= PICARD_DERIV_BOUND,
          f"derivative error {out['deriv_err']:.3e} > {PICARD_DERIV_BOUND:g}")
    check(out["cdf_residual"] <= PICARD_CDF_BOUND,
          f"CDF equation residual {out['cdf_residual']:.3e} > {PICARD_CDF_BOUND:g}")


def _picard_probe(inputs, ctx: Context, deadline: float) -> dict:
    measure = rr.build_measure(STALL_PROBE)
    g = rr.manufacture_inhomogeneity(measure, rr.triangle(0.0, 1.0))
    with ctx.tracer.span("picard.stall_probe"):
        result = rr.picard_iterate(measure, g, PICARD_WINDOW, 1e-3, PICARD_TOL)
    return {
        "picard.stall_probe_sweeps": result.iterations,
        "stall_probe_outcome": f"converged={result.converged} "
                               f"final_delta={result.final_delta:.3e}",
    }


# ---------------------------------------------------------------------------
# cli-session: the five subcommands on the README problem, then solve and
# perpetuity on an expansive problem, each call in a fresh interpreter
# ---------------------------------------------------------------------------

_CLI = "import sys; from randrefine.cli import main; sys.exit(main())"
CLI_TIMEOUT = 60.0


def _timeout(ctx: Context) -> float:
    left = min(CLI_TIMEOUT, ctx.deadline - perf_counter())
    check(left > 0.0, "run deadline passed")
    return left


README_MEASURE = ((0.5, 1.0, 1.0),)
README_F = rr.gaussian(0, 1) - rr.gaussian(3, 1)
README_GRID = {"x_max": 40.0, "x_points": 4097, "t_min": -10.0, "t_max": 10.0, "t_step": 0.001}
CLI_SAMPLES = 100_000  # the CLI's default perpetuity sample count


@dataclass(frozen=True)
class CliInputs:
    readme: Problem
    expansive: Problem
    seed: int


def _config(p: Problem, seed: int, mass: float) -> dict:
    g = rr.manufacture_inhomogeneity(p.measure, p.f)
    return {
        "measure": json.loads(p.measure.to_json()),
        "g": json.loads(g.to_json()),
        "seed": seed,
        "solver": {"mass": mass, "eps": 1e-10, "n_max": 60, "strategy": "exact"},
        "grid": README_GRID,
    }


def _cli_generate(seed, count, ctx):
    rng = _rng(seed, 4, 0)
    m1, m2 = rng.choice(_LATTICE[2:-2], 2, replace=False)  # nonzero, distinct
    expansive = rr.build_measure([(2.0, float(m1), 0.5), (2.0, float(m2), 0.5)])
    mu1, mu2 = rng.uniform(-2.0, 2.0, 2)
    s1, s2 = rng.uniform(0.7, 1.2, 2)
    f = (float(rng.uniform(0.5, 1.5)) * rr.gaussian(mu1, s1)
         + float(rng.uniform(0.5, 1.5)) * rr.gaussian(mu2, s2))
    inputs = CliInputs(
        readme=Problem(rr.build_measure(README_MEASURE), README_F,
                       rr.symmetric_grid(README_GRID["x_max"], README_GRID["x_points"])),
        expansive=Problem(expansive, f,
                          rr.symmetric_grid(README_GRID["x_max"], README_GRID["x_points"])),
        seed=seed,
    )
    for name, p, mass in (("readme", inputs.readme, 0.0),
                          ("expansive", inputs.expansive, inputs.expansive.f.mass())):
        (ctx.work / f"{name}.json").write_text(
            json.dumps(_config(p, seed, mass), indent=1), encoding="utf-8")
    return [inputs] * count


def _cli(ctx: Context, label: str, *args: str) -> dict:
    """One subcommand in a fresh interpreter; ``label`` starts with its name."""
    with ctx.tracer.span(f"cli.{label}"):
        done = subprocess.run(
            [sys.executable, "-c", _CLI, label.split("_")[0], *args],
            cwd=ctx.work, env=ctx.env, capture_output=True, text=True,
            timeout=_timeout(ctx),
        )
    check(done.returncode == 0,
          f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
    return {"stdout": done.stdout, "verdict": json.loads(done.stdout)}


def _cli_run(inputs: CliInputs, ctx: Context, corrupt: bool):
    out = {}
    out["classify"] = _cli(ctx, "classify", "readme.json")
    out["solve"] = _cli(ctx, "solve", "readme.json", "--out-dir", "readme")
    if corrupt:
        path = ctx.work / "readme" / "solution.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [ln if ln.startswith("#") or ln[0].isalpha() else
                f"{ln.split(',')[0]},{float(ln.split(',')[1]) * 1.01!r}" for ln in lines]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out["iterate"] = _cli(ctx, "iterate", "readme.json", "--out-dir", "readme")
    out["verify"] = _cli(ctx, "verify", "readme.json", "readme/solution.csv")
    out["perpetuity"] = _cli(ctx, "perpetuity", "readme.json", "--out-dir", "readme")
    out["solve_expansive"] = _cli(ctx, "solve_expansive", "expansive.json",
                                  "--out-dir", "expansive")
    out["perpetuity_expansive"] = _cli(ctx, "perpetuity_expansive", "expansive.json",
                                       "--out-dir", "expansive")
    digest = hashlib.sha256()
    size = sum(len(v["stdout"].encode()) for v in out.values())
    for path in sorted(ctx.work.glob("*/*.csv")):
        data = path.read_bytes()
        digest.update(data)
        size += len(data)
    ctx.tracer.count("cli.output_bytes", size)
    out["values"] = np.frombuffer(digest.digest(), dtype=np.uint8).astype(float)
    out["work"] = ctx.work
    return out


def _read_csv(path: Path) -> np.ndarray:
    rows = [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#") and not ln[0].isalpha()]
    return np.array([[float(v) for v in ln.split(",")] for ln in rows])


def _cli_check(inputs: CliInputs, out: dict) -> None:
    check(out["classify"]["verdict"]["regime"] == "LogContractive",
          f"classify: regime {out['classify']['verdict']['regime']}")
    for label in ("solve", "verify", "solve_expansive"):
        v = out[label]["verdict"]
        check(v["pass"] is True,
              f"{label}: residual {v['residual_sup']:.3e} > budget {v['tolerance_budget']:.3e}")
    for label in ("solve", "solve_expansive"):
        check(out[label]["verdict"]["series_converged"] is True, f"{label}: series not converged")
    check(out["iterate"]["verdict"]["converged"] is True, "iterate: no convergence")
    work = out["work"]
    # backward iterate of the README measure: compare with its exact path law
    depth = out["perpetuity"]["verdict"]["depth"]
    cdf = _read_csv(work / "readme" / "perpetuity_cdf.csv")
    law = rr.enumerate_paths(inputs.readme.measure, depth, "backward")
    exact = law.cdf(cdf[:, 0])
    slack = 5.0 * np.sqrt(exact * (1.0 - exact) / CLI_SAMPLES) + 1e-12
    check(bool(np.all(np.abs(cdf[:, 1] - exact) <= slack)), "perpetuity: CDF off the exact law")
    # forward limit of the single-scale expansive measure: exact product
    charfn = _read_csv(work / "expansive" / "charfn.csv")
    exact = rr.forward_charfn_product(inputs.expansive.measure, charfn[:, 0])
    err = np.abs(charfn[:, 1] + 1j * charfn[:, 2] - exact)
    check(bool(np.all(err <= 5.0 * charfn[:, 3] + 1e-9)),
          f"perpetuity_expansive: charfn error {err.max():.3e} beyond 5 stderr")


def _cli_replay(inputs: CliInputs, ctx: Context) -> None:
    """Replay the session's two problems in-process through the public
    functions the CLI calls, so each subcommand's time splits into layers."""
    tr = ctx.tracer
    readme, expansive = inputs.readme, inputs.expansive
    ts = np.linspace(README_GRID["t_min"], README_GRID["t_max"], 20001)
    for p, mass in ((readme, 0.0), (expansive, expansive.f.mass())):
        if p is readme:  # the classify subcommand
            with tr.span("measure.classify"):
                rr.classify_regime(p.measure)
            tr.count("measure.classify_calls", 1)
        g = _manufacture(p.measure, p.f, tr)
        spec = solve(p.measure, g, mass, p.xs, rr.EXACT, 1e-10, tr)
        recovered = _invert(spec, ts, tr)
        with tr.span("verify.residual"):
            report = rr.residual_time(p.measure, recovered, g)
        check(report.passes(), "replay: solve residual over budget")
        tr.count("verify.oracle_err", float(np.max(np.abs(recovered.values - p.f(ts)))))
        if p is readme:
            with tr.span("picard.iterate"):
                result = rr.picard_iterate(p.measure, g, (-10.0, 10.0), 1e-3, 1e-9)
            tr.count("picard.sweeps", result.iterations)
            tr.count("picard.converged_ratio", float(result.converged))
            with tr.span("picard.differentiate"):
                rr.differentiate(result.cdf)
            with tr.span("verify.residual"):  # the verify subcommand
                rr.residual_time(p.measure, recovered, g)
        with tr.span("measure.classify"):  # perpetuity --what auto
            regime = rr.classify_regime(p.measure).regime
        tr.count("measure.classify_calls", 1)
        if regime is rr.Regime.LOG_EXPANSIVE:
            xs = rr.symmetric_grid(10.0, 201)
            with tr.span("perpetuity.charfn"):
                est = rr.estimate_charfn(p.measure, xs, CLI_SAMPLES, rng_seed=inputs.seed)
            with tr.span("perpetuity.draw"):
                rr.draw_forward(p.measure, est.depth, CLI_SAMPLES, inputs.seed)
        else:
            with tr.span("perpetuity.cdf"):
                est = rr.estimate_cdf(p.measure, np.linspace(-10.0, 10.0, 2001),
                                      CLI_SAMPLES, rng_seed=inputs.seed)
            with tr.span("perpetuity.draw"):
                rr.draw_backward(p.measure, est.depth, CLI_SAMPLES, inputs.seed)
        tr.count("perpetuity.draws", CLI_SAMPLES * est.depth)


def _cli_fresh_import(ctx: Context) -> None:
    """``cli.import_s``: a fresh interpreter's ``import randrefine`` alone."""
    with ctx.tracer.span("cli.import"):
        done = subprocess.run([sys.executable, "-c", "import randrefine"],
                              cwd=ctx.work, env=ctx.env, capture_output=True,
                              timeout=_timeout(ctx))
    check(done.returncode == 0, f"import randrefine failed: {done.stderr[-300:]!r}")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # Nominal seconds per job on a 2-core Xeon: sets a run's job count, so
    # every seed runs the same number of jobs for a given --seconds.
    nominal_job_s: float
    generate: Callable
    run: Callable
    check: Callable
    # Runs after every traced job, under its own job id (cli-session only).
    replay: Callable | None = None
    # Before every traced job, outside its timing (cli-session only).
    pre_traced: Callable | None = None
    # Once per traced run, after the jobs; outside every end-to-end metric.
    probe: Callable | None = None
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-session", 6.0, _cli_generate, _cli_run, _cli_check,
                 replay=_cli_replay, pre_traced=_cli_fresh_import, in_process=False),
        Workload("exact-mixed", 0.45, _exact_generate, _exact_run, _exact_check,
                 probe=_exact_probe),
        Workload("mc-mixed", 0.5, _mc_generate, _mc_run, _mc_check),
        Workload("picard-fine", 0.65, _picard_generate, _picard_run, _picard_check,
                 probe=_picard_probe),
    )
}
