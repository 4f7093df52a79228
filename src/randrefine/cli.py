"""Command-line front end: classify | solve | iterate | verify | perpetuity.

One JSON config file describes a problem (measure, forcing term, grids,
solver settings, seed); flags override config values.  Outputs are CSV (or
JSON with ``--format json``) files with a provenance comment, plus JSON
verdicts on stdout.  Identical config + seed + flags give byte-identical
outputs.

Exit codes: 0 ok, 1 parse error, 2 invalid measure, 3 critical regime,
4 inadmissible forcing term, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .closedform import ClosedFormFn, fn_from_json
from .errors import (
    CriticalRegime,
    InvalidMeasure,
    NonzeroMeanInhomogeneity,
    RandRefineError,
)
from .gridfn import MAX_GRID_NODES, GridFn, grid_size
from .measure import Regime, classify_regime, measure_from_json
from .perpetuity import estimate_cdf, estimate_charfn
from .picard import differentiate, picard_iterate
from .spectrum import (
    EXACT,
    MonteCarloStrategy,
    invert_spectrum,
    solve_spectrum,
    symmetric_grid,
)
from .verify import residual_time

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID_MEASURE = 2
EXIT_CRITICAL = 3
EXIT_BAD_FORCING = 4
EXIT_NUMERIC = 5


class ConfigError(Exception):
    pass


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()[:12]


def _value(section: dict, key: str, default, kind=float):
    """``kind(section[key])``, or ``default`` when the key is absent or null."""
    try:
        value = section.get(key)
        return default if value is None else kind(value)
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key!r} entry: {exc}") from exc


def _measure_from(cfg: dict):
    if "measure" not in cfg:
        raise ConfigError("config lacks a 'measure' entry")
    try:
        return measure_from_json(json.dumps(cfg["measure"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'measure' entry: {exc!r}") from exc


def _forcing_from(cfg: dict) -> ClosedFormFn:
    if "g" not in cfg:
        raise ConfigError("config lacks a 'g' entry")
    try:
        return fn_from_json(json.dumps(cfg["g"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'g' entry: {exc!r}") from exc


def _seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else _value(cfg, "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _window(value) -> tuple[float, float]:
    t_min, t_max = (float(v) for v in value)  # ValueError unless two numbers
    return t_min, t_max


def _write_table(
    out_dir: Path,
    name: str,
    header: list[str],
    columns: list[np.ndarray],
    provenance: str,
    fmt: str,
):
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = list(zip(*columns))
    if fmt == "json":
        payload = {
            "provenance": provenance,
            "columns": header,
            "rows": [[float(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        path = out_dir / f"{name}.json"
    else:
        lines = [f"# {provenance}", ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
        path = out_dir / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _provenance(config_hash: str, seed: int) -> str:
    return f"randrefine {__version__} seed={seed} config={config_hash}"


def _strategy(solver: dict, args, seed: int):
    name = args.strategy or _value(solver, "strategy", "exact", str)
    if name == "exact":
        return EXACT
    if name == "mc":
        samples = _value(solver, "samples", 100_000, int) if args.samples is None else args.samples
        try:
            return MonteCarloStrategy(sample_count=samples, seed=seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown strategy {name!r}")


def _x_grid(section: dict, x_max: float, points: int):
    x_max = _value(section, "x_max", x_max)
    points = _value(section, "x_points", points, int)
    if not 2 <= points <= MAX_GRID_NODES:
        raise ConfigError(f"'x_points' must be between 2 and {MAX_GRID_NODES}, got {points}")
    if points % 2 == 1:
        return symmetric_grid(x_max, points)
    return np.linspace(-x_max, x_max, points)


def _t_grid(section: dict):
    t_min = _value(section, "t_min", -10.0)
    t_max = _value(section, "t_max", 10.0)
    step = _value(section, "t_step", 1e-3)
    try:
        n = grid_size(t_min, t_max, step)
    except ValueError as exc:
        raise ConfigError(f"invalid t grid: {exc}") from exc
    return np.linspace(t_min, t_max, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    cfg, _ = _load_config(args.config)
    measure = _measure_from(cfg)
    report = classify_regime(measure)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return EXIT_CRITICAL if report.regime is Regime.CRITICAL else EXIT_OK


def cmd_solve(args) -> int:
    cfg, config_hash = _load_config(args.config)
    measure = _measure_from(cfg)
    g = _forcing_from(cfg)
    seed = _seed(cfg, args)
    solver = cfg.get("solver", {})
    report = classify_regime(measure)
    mass = args.mass if args.mass is not None else _value(solver, "mass", None)
    if mass is None:
        mass = 0.0 if report.regime is Regime.LOG_CONTRACTIVE else 1.0
    eps = args.eps if args.eps is not None else _value(solver, "eps", 1e-10)
    n_max = args.n_max if args.n_max is not None else _value(solver, "n_max", 60, int)

    grid = cfg.get("grid", {})
    xs = _x_grid(grid, 40.0, 4097)
    ts = _t_grid(grid)
    strategy = _strategy(solver, args, seed)
    try:
        spec = solve_spectrum(measure, g, mass, xs, strategy=strategy,
                              eps=eps, n_max=n_max, regime_report=report)
    except ValueError as exc:  # a Monte Carlo draw over the budget
        raise ConfigError(str(exc)) from exc
    recovered = invert_spectrum(spec, ts)

    prov = _provenance(config_hash, seed)
    out = Path(args.out_dir)
    _write_table(out, "spectrum", ["x", "re", "im"],
                 [xs, spec.values.real, spec.values.imag], prov, args.format)
    _write_table(out, "solution", ["t", "f"],
                 [recovered.nodes, recovered.values], prov, args.format)

    verdict = residual_time(measure, recovered, g).to_dict()
    verdict["series_terms"] = spec.truncation.terms_used
    verdict["series_converged"] = spec.truncation.converged
    print(json.dumps(verdict, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_iterate(args) -> int:
    cfg, config_hash = _load_config(args.config)
    measure = _measure_from(cfg)
    g = _forcing_from(cfg)
    seed = _seed(cfg, args)
    it = cfg.get("iterate", {})
    window = tuple(args.window) if args.window else _value(it, "window", (-10.0, 10.0), _window)
    step = args.step if args.step is not None else _value(it, "step", 1e-3)
    tol = args.tol if args.tol is not None else _value(it, "tol", 1e-9)
    max_iter = args.max_iter if args.max_iter is not None else _value(it, "max_iter", 500, int)

    try:
        result = picard_iterate(measure, g, window, step, tol, max_iter)
    except ValueError as exc:  # a window, step or max_iter out of range
        raise ConfigError(str(exc)) from exc
    deriv = differentiate(result.cdf)

    prov = _provenance(config_hash, seed)
    _write_table(Path(args.out_dir), "cdf", ["t", "F", "f_candidate"],
                 [result.cdf.nodes, result.cdf.values, deriv.values],
                 prov, args.format)
    print(json.dumps(
        {
            "iterations": result.iterations,
            "final_delta": result.final_delta,
            "converged": result.converged,
        },
        sort_keys=True, indent=1,
    ))
    return EXIT_OK


def _load_solution(path: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"solution file {path} does not exist")
    if p.suffix == ".json":
        return fn_from_json(p.read_text(encoding="utf-8"))
    ts, vs = [], []
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        parts = line.split(",")
        ts.append(float(parts[0]))
        vs.append(float(parts[1]))
    if len(ts) < 2:
        raise ConfigError("solution CSV needs at least two rows of t,f")
    t = np.asarray(ts)
    step = (t[-1] - t[0]) / (len(t) - 1)
    if np.max(np.abs(np.diff(t) - step)) > 1e-9 * abs(step):
        raise ConfigError("solution CSV grid must be uniform")
    return GridFn(float(t[0]), float(t[-1]), float(step), np.asarray(vs), 0.0, 0.0)


def cmd_verify(args) -> int:
    cfg, _ = _load_config(args.config)
    measure = _measure_from(cfg)
    g = _forcing_from(cfg)
    candidate = _load_solution(args.solution)
    report = residual_time(measure, candidate, g)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return EXIT_OK


def cmd_perpetuity(args) -> int:
    cfg, config_hash = _load_config(args.config)
    measure = _measure_from(cfg)
    seed = _seed(cfg, args)
    pcfg = cfg.get("perpetuity", {})
    what = args.what or _value(pcfg, "what", "auto", str)
    if what == "auto":
        regime = classify_regime(measure).regime
        what = "charfn" if regime is Regime.LOG_EXPANSIVE else "cdf"
    samples = args.samples if args.samples is not None else _value(pcfg, "samples", 100_000, int)
    depth = args.depth if args.depth is not None else _value(pcfg, "depth", None, int)

    prov = _provenance(config_hash, seed)
    out = Path(args.out_dir)
    try:
        if what == "charfn":
            xs = _x_grid(pcfg, 10.0, 201)
            est = estimate_charfn(measure, xs, samples, depth=depth, rng_seed=seed)
            _write_table(out, "charfn", ["x", "re", "im", "stderr"],
                         [est.charfn_x, est.charfn_values.real,
                          est.charfn_values.imag, est.charfn_stderr],
                         prov, args.format)
        elif what == "cdf":
            t_min = _value(pcfg, "t_min", -10.0)
            t_max = _value(pcfg, "t_max", 10.0)
            points = _value(pcfg, "t_points", 2001, int)
            if points > MAX_GRID_NODES:
                raise ConfigError(f"'t_points' must be at most {MAX_GRID_NODES}, got {points}")
            ts = np.linspace(t_min, t_max, points)
            est = estimate_cdf(measure, ts, samples, depth=depth, rng_seed=seed)
            _write_table(out, "perpetuity_cdf", ["t", "phi"],
                         [est.cdf_t, est.cdf_values], prov, args.format)
        else:
            raise ConfigError(f"unknown perpetuity output {what!r}")
    except ValueError as exc:  # a sample count, depth or grid size out of range
        raise ConfigError(str(exc)) from exc
    print(json.dumps({"samples": samples, "depth": est.depth}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randrefine",
        description="Solve, simulate and verify refinement identities "
                    "with random affine maps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON problem description")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("classify", help="regime report as JSON")
    common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("solve", help="spectral solve + inversion")
    common(p)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--strategy", choices=("exact", "mc"), default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("iterate", help="CDF-level fixed-point iteration")
    common(p)
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.set_defaults(handler=cmd_iterate)

    p = sub.add_parser("verify", help="residual verdict for a candidate solution")
    common(p)
    p.add_argument("solution", help="candidate: .json closed form or .csv t,f grid")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("perpetuity", help="Monte Carlo charfn / limit CDF")
    common(p)
    p.add_argument("--what", choices=("charfn", "cdf", "auto"), default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(handler=cmd_perpetuity)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidMeasure as exc:
        print(f"invalid measure: {exc}", file=sys.stderr)
        return EXIT_INVALID_MEASURE
    except CriticalRegime as exc:
        print(f"critical regime: {exc}", file=sys.stderr)
        return EXIT_CRITICAL
    except NonzeroMeanInhomogeneity as exc:
        print(f"inadmissible forcing term: {exc}", file=sys.stderr)
        return EXIT_BAD_FORCING
    except RandRefineError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
