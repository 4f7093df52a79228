"""The public option surface: every defaulted parameter of a public function
or method outside ``cli.py``, found by walking the package's AST.  A new
option shows up here as an edit to the listed set."""

import ast
from pathlib import Path

import randrefine

_OPTIONS = {
    ("closedform.ClosedFormFn.moments", "c"),
    ("closedform.ClosedFormFn.abs_moment_bounds", "c"),
    ("gridfn.finite_points", "dtype"),
    ("gridfn.GridFn.from_function", "left_value"),
    ("gridfn.GridFn.from_function", "right_value"),
    ("perpetuity.estimate_charfn", "depth"),
    ("perpetuity.estimate_charfn", "rng_seed"),
    ("perpetuity.estimate_cdf", "depth"),
    ("perpetuity.estimate_cdf", "rng_seed"),
    ("picard.picard_iterate", "tol"),
    ("picard.picard_iterate", "max_iter"),
    ("picard.picard_iterate", "start"),
    ("spectrum.sum_series_grid", "strategy"),
    ("spectrum.sum_series_grid", "eps"),
    ("spectrum.sum_series_grid", "n_max"),
    ("spectrum.solve_spectrum", "strategy"),
    ("spectrum.solve_spectrum", "eps"),
    ("spectrum.solve_spectrum", "n_max"),
    ("spectrum.solve_spectrum", "regime_report"),
    ("spectrum.invert_spectrum", "check_leakage"),
}


def _public_functions(body, prefix):
    for node in body:
        public = not getattr(node, "name", "_").startswith("_")
        if public and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.args
        elif public and isinstance(node, ast.ClassDef):
            yield from _public_functions(node.body, f"{prefix}{node.name}.")


def _defaulted_parameters():
    found = set()
    for path in Path(randrefine.__file__).parent.glob("*.py"):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, args in _public_functions(tree.body, f"{path.stem}."):
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.update((name, a.arg) for a in defaulted)
    return found


def test_defaulted_public_parameters_are_the_listed_twenty():
    assert len(_OPTIONS) == 20
    assert _defaulted_parameters() == _OPTIONS
