"""Command-line front end: classify | solve | iterate | verify | perpetuity.

One JSON config file describes a problem (measure, forcing term, grids,
solver settings, seed); flags override config values.  Outputs are CSV (or
JSON with ``--format json``) files with a provenance comment, plus JSON
verdicts on stdout.  Identical config + seed + flags give byte-identical
outputs.

Exit codes: 0 ok, 1 parse error (a usage error, a bad config value, an
unreadable input or an unwritable output), 2 invalid measure, 3 critical
regime, 4 inadmissible forcing term, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CriticalRegime,
    InvalidMeasure,
    NonzeroMeanInhomogeneity,
    RandRefineError,
)
from .gridfn import MAX_GRID_NODES, GridFn, grid_size, symmetric_grid
from .measure import Regime, classify_regime, measure_from_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID_MEASURE = 2
EXIT_CRITICAL = 3
EXIT_BAD_FORCING = 4
EXIT_NUMERIC = 5


class ConfigError(ValueError):
    """A config entry or flag the CLI cannot use; exits 1 like any ``ValueError``."""


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


def _entry(cfg: dict, key: str, from_json):
    """``from_json`` of the JSON text of ``cfg[key]``."""
    if key not in cfg:
        raise ConfigError(f"config lacks a {key!r} entry")
    try:
        return from_json(json.dumps(cfg[key]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key!r} entry: {exc!r}") from exc


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
    rows = list(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
    if fmt == "json":
        payload = {
            "provenance": provenance,
            "columns": header,
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        path = out_dir / f"{name}.json"
    else:
        lines = [f"# {provenance}", ",".join(header)]
        row_fmt = ",".join(["%.17g"] * len(columns))
        lines += [row_fmt % row for row in rows]
        text = "\n".join(lines) + "\n"
        path = out_dir / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _provenance(config_hash: str, seed: int) -> str:
    return f"randrefine {__version__} seed={seed} config={config_hash}"


def _strategy(solver: dict, args, seed: int):
    from .spectrum import EXACT, MonteCarloStrategy

    name = args.strategy or _value(solver, "strategy", "exact", str)
    if name == "exact":
        return EXACT
    if name == "mc":
        samples = _value(solver, "samples", 100_000, int) if args.samples is None else args.samples
        return MonteCarloStrategy(sample_count=samples, seed=seed)
    raise ConfigError(f"unknown strategy {name!r}")


def _x_grid(section: dict, x_max: float, points: int):
    x_max = _value(section, "x_max", x_max)
    if not (math.isfinite(x_max) and x_max > 0):
        raise ConfigError(f"'x_max' must be finite and positive, got {x_max!r}")
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
# subcommands: each imports the solver modules it uses in its handler, so a
# process loads (and, without a bytecode cache, compiles) only those.
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    cfg, _ = _load_config(args.config)
    measure = _entry(cfg, "measure", measure_from_json)
    report = classify_regime(measure)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return EXIT_CRITICAL if report.regime is Regime.CRITICAL else EXIT_OK


def cmd_solve(args) -> int:
    from .closedform import fn_from_json
    from .spectrum import invert_spectrum, solve_spectrum
    from .verify import residual_time

    cfg, config_hash = _load_config(args.config)
    measure = _entry(cfg, "measure", measure_from_json)
    g = _entry(cfg, "g", fn_from_json)
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
    spec = solve_spectrum(measure, g, mass, xs, strategy=strategy,
                          eps=eps, n_max=n_max, regime_report=report)
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
    from .closedform import fn_from_json
    from .picard import differentiate, picard_iterate

    cfg, config_hash = _load_config(args.config)
    measure = _entry(cfg, "measure", measure_from_json)
    g = _entry(cfg, "g", fn_from_json)
    seed = _seed(cfg, args)
    it = cfg.get("iterate", {})
    window = tuple(args.window) if args.window else _value(it, "window", (-10.0, 10.0), _window)
    step = args.step if args.step is not None else _value(it, "step", 1e-3)
    tol = args.tol if args.tol is not None else _value(it, "tol", 1e-9)
    max_iter = args.max_iter if args.max_iter is not None else _value(it, "max_iter", 500, int)

    result = picard_iterate(measure, g, window, step, tol, max_iter)
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
    from .closedform import fn_from_json

    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read solution: {exc}") from exc
    if p.suffix == ".json":
        try:
            return fn_from_json(text)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid solution JSON: {exc!r}") from exc
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            t, v = (float(part) for part in line.split(","))
        except ValueError as exc:
            if not rows and line[0].isalpha():  # the column header
                continue
            raise ConfigError(f"solution CSV row {line!r} is not two numbers t,f") from exc
        rows.append((t, v))
    if len(rows) < 2:
        raise ConfigError("solution CSV needs at least two rows of t,f")
    table = np.array(rows)
    if not np.all(np.isfinite(table)):
        raise ConfigError("solution CSV holds a non-finite value")
    t, vs = table.T
    step = (t[-1] - t[0]) / (len(t) - 1)
    if np.max(np.abs(np.diff(t) - step)) > 1e-9 * abs(step):
        raise ConfigError("solution CSV grid must be uniform")
    try:
        return GridFn(float(t[0]), float(t[-1]), float(step), vs, 0.0, 0.0)
    except ValueError as exc:  # equal or descending t
        raise ConfigError(f"invalid solution CSV grid: {exc}") from exc


def cmd_verify(args) -> int:
    from .closedform import fn_from_json
    from .verify import residual_time

    cfg, _ = _load_config(args.config)
    measure = _entry(cfg, "measure", measure_from_json)
    g = _entry(cfg, "g", fn_from_json)
    candidate = _load_solution(args.solution)
    report = residual_time(measure, candidate, g)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return EXIT_OK


def cmd_perpetuity(args) -> int:
    from .perpetuity import estimate_cdf, estimate_charfn

    cfg, config_hash = _load_config(args.config)
    measure = _entry(cfg, "measure", measure_from_json)
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
        if not (math.isfinite(t_min) and math.isfinite(t_max) and t_min < t_max):
            raise ConfigError("'t_min' and 't_max' must be finite with t_min < t_max, "
                              f"got {t_min!r} and {t_max!r}")
        points = _value(pcfg, "t_points", 2001, int)
        if not 2 <= points <= MAX_GRID_NODES:
            raise ConfigError(f"'t_points' must be between 2 and {MAX_GRID_NODES}, got {points}")
        ts = np.linspace(t_min, t_max, points)
        est = estimate_cdf(measure, ts, samples, depth=depth, rng_seed=seed)
        _write_table(out, "perpetuity_cdf", ["t", "phi"],
                     [est.cdf_t, est.cdf_values], prov, args.format)
    else:
        raise ConfigError(f"unknown perpetuity output {what!r}")
    print(json.dumps({"samples": samples, "depth": est.depth}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the parse-error code, with argparse's message."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randrefine",
        description="Solve, simulate and verify refinement identities "
                    "with random affine maps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, writes=True):
        """A subcommand on a config; one that ``writes`` tables takes three more options."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", help="JSON problem description")
        if writes:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--out-dir", default=".")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(handler=handler)
        return p

    command("classify", cmd_classify, "regime report as JSON", writes=False)

    p = command("solve", cmd_solve, "spectral solve + inversion")
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--strategy", choices=("exact", "mc"), default=None)
    p.add_argument("--samples", type=int, default=None)

    p = command("iterate", cmd_iterate, "CDF-level fixed-point iteration")
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    p = command("verify", cmd_verify, "residual verdict for a candidate solution", writes=False)
    p.add_argument("solution", help="candidate: .json closed form or .csv t,f grid")

    p = command("perpetuity", cmd_perpetuity, "Monte Carlo charfn / CDF of the regime's limit law")
    p.add_argument("--what", choices=("charfn", "cdf", "auto"), default=None,
                   help="auto: charfn when expansive, cdf otherwise")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
    # After the RandRefineError clauses, so an error that is both keeps its own code.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
