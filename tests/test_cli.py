import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import randrefine as rr
from randrefine.cli import _write_table, main


def write_config(tmp_path, name="problem.json", **overrides):
    measure = rr.build_measure([(0.5, 1.0, 1.0)])
    f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
    g = rr.manufacture_inhomogeneity(measure, f)
    cfg = {
        "measure": json.loads(measure.to_json()),
        "g": json.loads(g.to_json()),
        "seed": 42,
        "solver": {"mass": 0.0, "eps": 1e-10, "n_max": 60, "strategy": "exact"},
        "grid": {"x_max": 40.0, "x_points": 2049,
                 "t_min": -10.0, "t_max": 10.0, "t_step": 0.002},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestClassify:
    def test_contractive_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["classify", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "LogContractive"

    def test_critical_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            measure=[{"l": -1, "m": 0, "p": 0.5}, {"l": 1, "m": 0, "p": 0.5}],
        )
        assert main(["classify", str(cfg)]) == 3
        assert json.loads(capsys.readouterr().out)["regime"] == "Critical"

    def test_expansive_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, measure=[{"l": 2, "m": 0, "p": 1.0}])
        assert main(["classify", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "LogExpansive"

    def test_malformed_json_exit_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"measure": [', encoding="utf-8")
        assert main(["classify", str(path)]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.json")]) == 1

    def test_invalid_measure_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, measure=[{"l": 0, "m": 1, "p": 1.0}])
        assert main(["classify", str(cfg)]) == 2


    @pytest.mark.parametrize("atom", [
        {"l": float("nan"), "m": 1, "p": 1.0},
        {"l": float("inf"), "m": 1, "p": 1.0},
        {"l": 0.5, "m": float("-inf"), "p": 1.0},
    ])
    def test_nonfinite_measure_exit_two(self, tmp_path, atom):
        # json writes and reads NaN and Infinity, so configs can carry them
        cfg = write_config(tmp_path, measure=[atom])
        assert main(["classify", str(cfg)]) == 2


@pytest.mark.parametrize("command, entries, flags", [
    ("classify", {"measure": [{"l": 0.5, "p": 1.0}]}, []),
    ("classify", {"measure": [{"l": "x", "m": 1.0, "p": 1.0}]}, []),
    ("classify", {"measure": {"l": 0.5, "m": 1.0, "p": 1.0}}, []),
    ("solve", {"grid": {"x_points": "many"}}, []),
    ("solve", {"grid": {"t_step": [0.01]}}, []),
    ("solve", {"grid": [40.0, 4097]}, []),
    ("solve", {"seed": "forty-two"}, []),
    ("solve", {"solver": {"strategy": "mc", "samples": "lots"}}, []),
    ("solve", {"solver": {"eps": "small"}}, []),
    ("iterate", {"iterate": {"max_iter": "x"}}, []),
    ("perpetuity", {"perpetuity": {"t_points": float("inf")}}, []),
    ("solve", {"grid": {"t_step": 0}}, []),
    ("solve", {"grid": {"x_points": 1}}, []),
    ("solve", {}, ["--seed", "-1", "--strategy", "mc"]),
    ("iterate", {"iterate": {"window": "ab"}}, []),
    ("iterate", {"iterate": {"window": [10, -10]}}, []),
    ("iterate", {"iterate": {"max_iter": 0}}, []),
    ("iterate", {}, ["--step", "0"]),
    ("iterate", {}, ["--window", "0", "0.0001"]),
    ("iterate", {}, ["--window", "-10", "nan"]),
    ("iterate", {}, ["--step", "1e-15"]),
    ("iterate", {}, ["--step", "1e-320"]),
    ("solve", {"grid": {"t_step": 1e-15}}, []),
    ("solve", {"grid": {"x_points": 10**13}}, []),
    ("perpetuity", {"perpetuity": {"t_points": 10**13}}, []),
    ("perpetuity", {}, ["--samples", str(10**13)]),
    ("solve", {}, ["--strategy", "mc", "--samples", "1", "--n-max", str(10**13)]),
], ids=["atom-lacks-m", "text-scale", "measure-object", "text-x-points",
        "list-t-step", "grid-list", "text-seed", "text-samples", "text-eps",
        "text-max-iter", "infinite-t-points", "zero-t-step", "one-x-point",
        "negative-seed-flag", "text-window", "reversed-window",
        "zero-max-iter", "zero-step-flag", "one-node-window", "nan-window-flag",
        "tiny-step-flag", "overflowing-step-flag", "tiny-t-step", "huge-x-points",
        "huge-t-points", "huge-samples-flag", "huge-mc-depth-flag"])
def test_malformed_config_value_exit_one(tmp_path, capsys, command, entries, flags):
    cfg = write_config(tmp_path, **entries)
    out = [] if command == "classify" else ["--out-dir", str(tmp_path / "out")]
    assert main([command, str(cfg), *out, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("x_max", [float("nan"), float("inf"), 0.0, -5.0],
                         ids=["nan", "infinity", "zero", "negative"])
@pytest.mark.parametrize("command, section", [("solve", "grid"), ("perpetuity", "perpetuity")])
def test_bad_frequency_window_exit_one(tmp_path, capsys, command, section, x_max):
    cfg = write_config(
        tmp_path,
        measure=[{"l": 2, "m": 0, "p": 0.5}, {"l": 2, "m": 1, "p": 0.5}],
        **{section: {"x_max": x_max, "x_points": 21}},
    )
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out-dir", str(out), "--samples", "100"]) == 1
    assert capsys.readouterr().err.startswith("error: 'x_max' must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("entries, flags", [
    ({}, ["--tol", "nan"]),
    ({}, ["--tol=-1e-9"]),
    ({}, ["--tol", "inf"]),
    ({"iterate": {"tol": -1}}, []),
], ids=["nan-tol-flag", "negative-tol-flag", "infinite-tol-flag", "negative-tol-config"])
def test_bad_tol_exit_one(tmp_path, capsys, entries, flags):
    cfg = write_config(tmp_path, **entries)
    out = tmp_path / "out"
    assert main(["iterate", str(cfg), "--out-dir", str(out), "--step", "0.01", *flags]) == 1
    assert capsys.readouterr().err.startswith("error: tol must be finite and non-negative")
    assert not out.exists()


@pytest.mark.parametrize("entries, flags, message", [
    ({}, ["--n-max", "0"], "n_max must be >= 1"),
    ({"solver": {"n_max": -1}}, [], "n_max must be >= 1"),
    ({}, ["--eps", "nan"], "eps must be finite and >= 0"),
    ({}, ["--eps", "-1"], "eps must be finite and >= 0"),
    ({}, ["--eps", "inf"], "eps must be finite and >= 0"),
], ids=["zero-n-max-flag", "negative-n-max-config", "nan-eps-flag",
        "negative-eps-flag", "infinite-eps-flag"])
def test_bad_series_settings_exit_one(tmp_path, capsys, entries, flags, message):
    cfg = write_config(tmp_path, **entries)
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out-dir", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def _fmt_oracle(v) -> str:
    """Reference oracle: the per-value CSV formatter."""
    return f"{float(v):.17g}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_matches_per_value_oracle_bytes(tmp_path, fmt):
    a = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300,
                  3.0, -42.0, 2.0**53, 0.1, 1 / 3, -2.5e-17])
    columns = [a, a[::-1].copy(), np.arange(len(a))]
    path = _write_table(tmp_path, "table", ["a", "b", "c"], columns, "prov", fmt)
    rows = list(zip(*columns))
    if fmt == "csv":
        lines = ["# prov", "a,b,c"] + [",".join(_fmt_oracle(v) for v in row) for row in rows]
        expected = "\n".join(lines) + "\n"
    else:
        payload = {"provenance": "prov", "columns": ["a", "b", "c"],
                   "rows": [[float(v) for v in row] for row in rows]}
        expected = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


class TestSolve:
    def test_contractive_solve_writes_tables_and_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pass"] is True
        spectrum = (out / "spectrum.csv").read_text(encoding="utf-8")
        lines = spectrum.splitlines()
        assert lines[0].startswith("# randrefine")
        assert "seed=42" in lines[0]
        assert lines[1] == "x,re,im"
        solution = (out / "solution.csv").read_text(encoding="utf-8")
        assert solution.splitlines()[1] == "t,f"

    def test_mass_reported_zero_at_origin(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        for line in (out / "spectrum.csv").read_text().splitlines()[2:]:
            x, re, im = (float(v) for v in line.split(","))
            if x == 0.0:
                assert abs(complex(re, im)) <= 1e-9
                break
        else:
            pytest.fail("no x = 0 row in spectrum.csv")

    def test_critical_exit_three(self, tmp_path):
        cfg = write_config(
            tmp_path,
            measure=[{"l": -1, "m": 0, "p": 0.5}, {"l": 1, "m": 0, "p": 0.5}],
            g=[{"coef": 1.0, "kind": "triangle", "params": [1, 1]},
               {"coef": -1.0, "kind": "triangle", "params": [-1, 1]}],
        )
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3

    def test_shared_fixed_point_solves_at_mass_zero_only(self, tmp_path, capsys):
        # every map fixes -0.7: the forward limit is the point mass there, so
        # mass 0 solves and the expansive default mass of 1 is refused (exit 5)
        measure = rr.build_measure([(2, -0.7, 0.5), (3, -1.4, 0.5)])
        g = rr.manufacture_inhomogeneity(measure, rr.gaussian(0, 1) - rr.gaussian(3, 1))
        cfg = write_config(tmp_path, measure=json.loads(measure.to_json()),
                           g=json.loads(g.to_json()), solver={})
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out), "--mass", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 5
        assert "every map fixes -0.7" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [[float("nan"), 1], [0, float("inf")], [0]])
    def test_invalid_forcing_parameters_exit_one(self, tmp_path, params):
        cfg = write_config(tmp_path, g=[{"coef": 1.0, "kind": "gaussian", "params": params}])
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("flags, solver", [
        (["--strategy", "mc", "--samples", "0"], {}),
        ([], {"strategy": "mc", "samples": -5}),
    ], ids=["flag-zero", "config-negative"])
    def test_nonpositive_samples_exit_one(self, tmp_path, flags, solver):
        cfg = write_config(tmp_path, solver=solver)
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out"), *flags]) == 1

    def test_nonzero_mean_exit_four(self, tmp_path):
        cfg = write_config(
            tmp_path, g=[{"coef": 1.0, "kind": "indicator", "params": [0, 1]}]
        )
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("scale, terms", [(1.0, 21), (1e4, 21)])
    def test_zero_mean_gate_scales_with_g(self, tmp_path, capsys, scale, terms):
        # s g is admissible exactly when g is: at s = 1e4, ghat(0) rounds to
        # -3.6e-12 and the solve passes (an absolute 1e-12 gate exited 4).
        # Both series stop at depth 21, where no x > 0 is left to carry
        measure = rr.build_measure([(0.5, 1.0, 0.5), (0.75, 0.5, 0.5)])
        f = scale * (rr.gaussian(0, 1) - (1 / 1.2) * rr.gaussian(1.5, 1.2))
        g = rr.manufacture_inhomogeneity(measure, f)
        cfg = write_config(tmp_path, measure=json.loads(measure.to_json()),
                           g=json.loads(g.to_json()), grid={})
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pass"] and verdict["series_terms"] == terms

    def test_tiny_mass_exit_four(self, tmp_path):
        # mass 2.5e-13 is far above the rounding of a one-term ghat(0); an
        # absolute 1e-12 gate accepted it
        cfg = write_config(tmp_path, g=[{"coef": 1e-13, "kind": "gaussian", "params": [0, 1]}])
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "o")]) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_mass_exit_four(self, tmp_path):
        # finite coefficient, but its mass and ghat(0) overflow to inf
        cfg = write_config(tmp_path, g=[{"coef": 1e308, "kind": "gaussian", "params": [0, 1]}])
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("mass", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("measure", [
        None, [{"l": 2, "m": 0, "p": 0.5}, {"l": 2, "m": 1, "p": 0.5}],
    ], ids=["contractive", "expansive"])
    def test_nonfinite_mass_exit_one(self, tmp_path, capsys, measure, mass):
        # expansive: nan wrote nan rows and a bare NaN verdict, inf exited 5
        # on leakage; contractive: nan exited 5 (MassMustBeZero)
        cfg = write_config(tmp_path, **({"measure": measure} if measure else {}))
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out), f"--mass={mass}"]) == 1
        assert capsys.readouterr().err.startswith("error: mass must be finite")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["solve", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["columns"] == ["x", "re", "im"]
        assert "randrefine" in payload["provenance"]


class TestIterate:
    def test_writes_cdf_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["iterate", str(cfg), "--out-dir", str(out),
                     "--window", "-10", "10", "--step", "0.01", "--tol", "1e-8"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["converged"] is True
        lines = (out / "cdf.csv").read_text().splitlines()
        assert lines[1] == "t,F,f_candidate"

    def test_not_mean_contractive_exit_five(self, tmp_path):
        cfg = write_config(tmp_path, measure=[{"l": 2, "m": 1, "p": 1.0}],
                           g=[{"coef": 1.0, "kind": "triangle", "params": [0, 1]},
                              {"coef": -1.0, "kind": "triangle", "params": [2, 1]}])
        assert main(["iterate", str(cfg), "--out-dir", str(tmp_path / "o")]) == 5


class TestVerify:
    def test_closed_form_solution_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
        sol = tmp_path / "candidate.json"
        sol.write_text(f.to_json(), encoding="utf-8")
        assert main(["verify", str(cfg), str(sol)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pass"] is True
        assert verdict["residual_sup"] <= 1e-12

    def test_wrong_candidate_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        sol = tmp_path / "candidate.json"
        sol.write_text(rr.gaussian(0, 1).to_json(), encoding="utf-8")
        assert main(["verify", str(cfg), str(sol)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_grid_candidate_from_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["solve", str(cfg), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["verify", str(cfg), str(out / "solution.csv")]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pass"] is True


    @pytest.mark.parametrize("rows", [
        ["1.0,0.0", "1.0,0.0"],
        ["0.0", "1.0"],
        ["0.0,1.0", "0.5,2.0,3.0", "1.0,0.0"],
        ["0.0,1.0", "0.5,nan", "1.0,0.0"],
        ["0.0,1.0", "0.5,1.0", "1.0,inf"],
        ["1.0,0.0", "0.5,0.0", "0.0,0.0"],
        ["0.0,1.0", "0.5,1.0", "nan,0.0"],
        ["0.0,1.0", "t,f", "1.0,0.0"],
    ], ids=["equal-t", "one-column", "three-columns", "nan-value", "inf-value", "descending-t",
            "nan-t", "header-between-rows"])
    def test_bad_solution_csv_exit_one(self, tmp_path, capsys, rows):
        cfg = write_config(tmp_path)
        sol = tmp_path / "candidate.csv"
        sol.write_text("\n".join(["# candidate", "t,f", *rows]) + "\n", encoding="utf-8")
        assert main(["verify", str(cfg), str(sol)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


    @pytest.mark.parametrize("text", [
        '{"terms": [',
        '[{"coef": 1.0, "kind": "gaussian", "params": [0, -1]}]',
        '[{"coef": 1.0, "kind": "wavelet", "params": [0, 1]}]',
    ], ids=["malformed", "negative-width", "unknown-kind"])
    def test_bad_solution_json_exit_one(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path)
        sol = tmp_path / "candidate.json"
        sol.write_text(text, encoding="utf-8")
        assert main(["verify", str(cfg), str(sol)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestPerpetuity:
    def test_charfn_table_for_expansive(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            measure=[{"l": 2, "m": 0, "p": 0.5}, {"l": 2, "m": 1, "p": 0.5}],
            perpetuity={"x_max": 5.0, "x_points": 21, "samples": 2000},
        )
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "charfn.csv").read_text().splitlines()
        assert lines[1] == "x,re,im,stderr"
        assert len(lines) == 23

    def test_cdf_table_for_contractive(self, tmp_path):
        cfg = write_config(
            tmp_path,
            perpetuity={"t_min": -4.0, "t_max": 0.0, "t_points": 101,
                        "samples": 2000},
        )
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "perpetuity_cdf.csv").read_text().splitlines()
        assert lines[1] == "t,phi"

    def test_charfn_table_for_contractive(self, tmp_path):
        # the README map's limit is the point mass at -2
        cfg = write_config(tmp_path, perpetuity={"samples": 2000})
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out), "--what", "charfn"]) == 0
        x, re, im, stderr = np.loadtxt(out / "charfn.csv", delimiter=",", skiprows=2).T
        assert np.all(np.abs(re + 1j * im - np.exp(-2j * x)) <= 5 * stderr + 1e-9)

    def test_cdf_table_for_expansive(self, tmp_path, capsys):
        atoms = [(2.0, 0.5, 0.5), (2.0, -1.0, 0.5)]
        cfg = write_config(
            tmp_path,
            measure=json.loads(rr.build_measure(atoms).to_json()),
            perpetuity={"t_min": -2.0, "t_max": 2.0, "t_points": 101, "samples": 2000},
        )
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out), "--what", "cdf",
                     "--depth", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["depth"] == 12
        t, phi = np.loadtxt(out / "perpetuity_cdf.csv", delimiter=",", skiprows=2).T
        exact = rr.enumerate_paths(rr.build_measure(atoms), 12, "forward").cdf(t)
        assert np.all(np.abs(phi - exact) <= 5 * np.sqrt(exact * (1 - exact) / 2000) + 1e-12)

    @pytest.mark.parametrize("what", ["charfn", "cdf", "auto"])
    def test_critical_exit_three(self, tmp_path, capsys, what):
        # exited 5, with a hint at a Python keyword the CLI has no flag for
        cfg = write_config(
            tmp_path, measure=[{"l": -1, "m": 2, "p": 0.5}, {"l": 1, "m": 0, "p": 0.5}],
            perpetuity={"samples": 100},
        )
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out), "--what", what]) == 3
        assert capsys.readouterr().err.startswith("critical regime: ")
        assert not out.exists()

    @pytest.mark.parametrize("entries, message", [
        ({"t_points": 0}, "'t_points' must be between 2"),
        ({"t_points": 1}, "'t_points' must be between 2"),
        ({"t_min": 1.0, "t_max": -1.0}, "'t_min' and 't_max' must be finite"),
        ({"t_min": "nan"}, "'t_min' and 't_max' must be finite"),
        ({"t_max": float("inf")}, "'t_min' and 't_max' must be finite"),
    ], ids=["zero-points", "one-point", "reversed", "nan-t-min", "infinite-t-max"])
    def test_bad_cdf_grid_exit_one(self, tmp_path, capsys, entries, message):
        # each of these exited 0: a header-only table, one point, a reversed
        # grid, or nan,1 rows
        cfg = write_config(tmp_path, perpetuity={"samples": 100, **entries})
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out), "--what", "cdf"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_flag_exit_one(self, tmp_path, samples):
        cfg = write_config(tmp_path, perpetuity={"t_points": 11, "samples": 100})
        out = tmp_path / "out"
        assert main(["perpetuity", str(cfg), "--out-dir", str(out), "--samples", samples]) == 1
        assert not (out / "perpetuity_cdf.csv").exists()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            measure=[{"l": 2, "m": 0, "p": 0.5}, {"l": 2, "m": 1, "p": 0.5}],
            perpetuity={"x_max": 5.0, "x_points": 11, "samples": 500},
        )
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["perpetuity", str(cfg), "--out-dir", str(a)])
        main(["perpetuity", str(cfg), "--out-dir", str(b)])
        main(["perpetuity", str(cfg), "--out-dir", str(c), "--seed", "9"])
        read = lambda d: (d / "charfn.csv").read_text().splitlines()[2:]
        assert read(a) == read(b)
        assert read(a) != read(c)


class TestErrorPath:
    """Usage errors and unreadable or unwritable files exit 1 with one line."""

    @staticmethod
    def assert_one_error_line(err):
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["solve"], "randrefine solve: error: the following arguments are required: config\n"),
        (["solve", "{cfg}", "--strategy", "bogus"],
         "randrefine solve: error: argument --strategy: invalid choice: "),
        (["classify", "{cfg}", "--seed", "-1"],
         "randrefine: error: unrecognized arguments: --seed -1\n"),
    ], ids=["no-config", "unknown-strategy", "classify-negative-seed"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv, message):
        # argparse's own message, after its usage lines; the code was 2
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(cfg=cfg) for arg in argv])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: randrefine") and message in err

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--out-dir", "out"], ["--format", "json"]],
                             ids=["seed", "out-dir", "format"])
    def test_flags_of_table_writers_refused(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path)
        sol = tmp_path / "candidate.json"
        sol.write_text(rr.gaussian(0, 1).to_json(), encoding="utf-8")
        argv = [command, str(cfg), *([str(sol)] if command == "verify" else []), *flag]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_non_utf8_solution_csv_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        sol = tmp_path / "candidate.csv"
        sol.write_bytes(b"t,f\n0.0,\xff\n1.0,0.0\n")
        assert main(["verify", str(cfg), str(sol)]) == 1
        self.assert_one_error_line(capsys.readouterr().err)

    def test_solution_directory_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", str(cfg), str(tmp_path)]) == 1
        self.assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("name, content", [
        ("candidate.csv", b"t,f\n0.0,\xff\n1.0,0.0\n"),
        ("candidate.json", b'{"terms": [\xff]}'),
        ("missing.csv", None),
    ], ids=["non-utf8-csv", "non-utf8-json", "missing"])
    def test_unreadable_solution_named(self, tmp_path, capsys, name, content):
        cfg = write_config(tmp_path)
        sol = tmp_path / name
        if content is not None:
            sol.write_bytes(content)
        assert main(["verify", str(cfg), str(sol)]) == 1
        err = capsys.readouterr().err
        self.assert_one_error_line(err)
        assert err.startswith("error: cannot read solution: ")

    def test_out_dir_under_a_file_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", str(cfg), "--out-dir", str(cfg / "sub")]) == 1
        captured = capsys.readouterr()
        self.assert_one_error_line(captured.err)
        assert captured.out == ""


class TestLazyImports:
    @pytest.mark.parametrize("command, flags, absent", [
        ("classify", [], ["spectrum", "picard", "verify"]),
        ("iterate", ["--step", "0.01"], ["spectrum", "verify"]),
        ("perpetuity", ["--samples", "1000"], ["spectrum", "picard", "verify"]),
    ])
    def test_subcommand_loads_only_its_modules(self, tmp_path, command, flags, absent):
        # a fresh interpreter, as the installed script runs each subcommand
        cfg = write_config(tmp_path)
        code = ("import json, sys; from randrefine.cli import main; rc = main(sys.argv[1:]); "
                "print(json.dumps([rc, sorted(sys.modules)]))")
        src = os.path.dirname(os.path.dirname(rr.__file__))
        out = [] if command == "classify" else ["--out-dir", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-c", code, command, str(cfg), *out, *flags],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=120,
        )
        rc, modules = json.loads(done.stdout.splitlines()[-1])
        assert rc == 0
        assert not {f"randrefine.{name}" for name in absent} & set(modules)

    def test_solve_does_not_load_numpy_ma(self, tmp_path):
        # a plain np.unique imports numpy.ma on its first call
        cfg = write_config(tmp_path)
        code = ("import json, sys; from randrefine.cli import main; rc = main(sys.argv[1:]); "
                "print(json.dumps([rc, 'numpy.ma' in sys.modules]))")
        src = os.path.dirname(os.path.dirname(rr.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code, "solve", str(cfg), "--out-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert json.loads(done.stdout.splitlines()[-1]) == [0, False]

    def test_public_names_are_their_submodules_objects(self):
        assert len(rr.__all__) == len(set(rr.__all__)) == 65
        for name in rr.__all__:
            module = importlib.import_module(f"randrefine.{rr._MODULE_OF[name]}")
            assert getattr(rr, name) is getattr(module, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'solve'"):
            rr.solve  # noqa: B018
