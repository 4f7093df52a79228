import json

import pytest

import randrefine as rr
from randrefine.cli import main


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
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "out"), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
