"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest

import randrefine as rr
from randrefine.measure import FIXED_POINT_RTOL

from conftest import staircase_cdf


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[criterion {number:02d}] PASS in {elapsed:5.2f}s  {label}")


def test_c01_fourier_round_trip():
    started = time.perf_counter()
    f = rr.gaussian(0, 1)
    xs = np.linspace(-40.0, 40.0, 4096)
    spec = rr.Spectrum(xs, f.fourier(xs), f.mass(), rr.TruncationReport(0, 0.0, True))
    ts = np.linspace(-8.0, 8.0, 1601)
    recovered = rr.invert_spectrum(spec, ts)
    sup_err = float(np.max(np.abs(recovered.values - f(ts))))
    assert sup_err <= 1e-6
    _report(1, f"Gaussian round trip, sup err {sup_err:.2e}", started, 5.0)


def test_c02_uniform_perpetuity_oracle():
    started = time.perf_counter()
    measure = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
    xs = [0.5, 1.0, 2.0, 5.0]
    est = rr.estimate_charfn(measure, xs, 100_000, depth=60, rng_seed=7)
    worst = 0.0
    for x, value, stderr in zip(est.charfn_x, est.charfn_values, est.charfn_stderr):
        oracle = (np.exp(1j * x) - 1.0) / (1j * x)
        bound = 3.0 * stderr + 1e-3
        assert abs(value.real - oracle.real) <= bound
        assert abs(value.imag - oracle.imag) <= bound
        worst = max(worst, abs(value - oracle))
    _report(2, f"uniform-limit charfn, worst |err| {worst:.2e}", started, 10.0)


def test_c03_manufactured_recovery_contractive():
    started = time.perf_counter()
    measure = rr.build_measure([(0.5, 1.0, 1.0)])
    f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
    g = rr.manufacture_inhomogeneity(measure, f)
    xs = rr.symmetric_grid(40.0, 4097)
    spec = rr.solve_spectrum(measure, g, 0.0, xs)
    assert spec.truncation.converged
    ts = np.linspace(-10.0, 10.0, 20001)
    recovered = rr.invert_spectrum(spec, ts)
    rel_l1 = np.trapezoid(np.abs(recovered.values - f(ts)), ts) / np.trapezoid(np.abs(f(ts)), ts)
    assert rel_l1 <= 0.05
    _report(3, f"contractive recovery, rel L1 {rel_l1:.2e}", started, 30.0)


def test_c04_manufactured_recovery_expansive():
    started = time.perf_counter()
    measure = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
    f = rr.indicator(0, 1) + rr.indicator(2, 3)
    g = rr.manufacture_inhomogeneity(measure, f)
    xs = rr.symmetric_grid(2560.0, 32769)
    spec = rr.solve_spectrum(measure, g, 2.0, xs, eps=1e-10, n_max=60)
    assert spec.truncation.converged
    ts = np.linspace(-2.0, 5.0, 28001)
    recovered = rr.invert_spectrum(spec, ts)
    rel_l1 = np.trapezoid(np.abs(recovered.values - f(ts)), ts) / np.trapezoid(np.abs(f(ts)), ts)
    assert rel_l1 <= 0.08
    _report(4, f"expansive recovery, rel L1 {rel_l1:.2e} (Gibbs allowance)", started, 60.0)


def test_c05_finite_depth_identity():
    started = time.perf_counter()
    contractive = rr.build_measure([(0.5, 1.0, 1.0)])
    f_c = rr.gaussian(0, 1) - rr.gaussian(3, 1)
    expansive = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
    f_e = rr.indicator(0, 1) + rr.indicator(2, 3)
    worst = 0.0
    for measure, f in ((contractive, f_c), (expansive, f_e)):
        g = rr.manufacture_inhomogeneity(measure, f)
        for depth in (1, 2, 3):
            res = rr.finite_depth_residual(measure, f, g, depth, [0.3, 1.0, 2.7])
            assert res <= 1e-10
            worst = max(worst, res)
    _report(5, f"exact depth-N identity, worst residual {worst:.2e}", started, 5.0)


def _random_symmetric_inputs(rng, center):
    """Random forcing/homogeneous pair with the family's exact symmetries."""

    def random_fn():
        terms = rr.zero_fn()
        for _ in range(int(rng.integers(1, 3))):
            kind = rng.integers(0, 3)
            coef = float(rng.uniform(0.4, 2.0))
            lo = center + float(rng.uniform(0.2, 2.5))
            if kind == 0:
                piece = rr.indicator(lo, lo + float(rng.uniform(0.3, 1.5)))
            elif kind == 1:
                piece = rr.triangle(lo, float(rng.uniform(0.3, 1.5)))
            else:
                piece = rr.gaussian(lo, float(rng.uniform(0.3, 1.0)))
            terms = terms + coef * piece
        return terms

    raw_g, raw_h = random_fn(), random_fn()
    g = raw_g - rr.mirror_about(raw_g, center)   # point-antisymmetric
    h = raw_h + rr.mirror_about(raw_h, center)   # mirror-symmetric
    return g, h


def test_c06_critical_case_families():
    started = time.perf_counter()
    rng = np.random.default_rng(20250810)
    for which, center in (("example1", 0.0), ("example2", 1.0)):
        for _ in range(5):
            g, h = _random_symmetric_inputs(rng, center)
            measure, f = rr.example_family(which, g, h)
            assert rr.classify_regime(measure).regime is rr.Regime.CRITICAL
            assert rr.residual_time(measure, f, g).sup_residual <= 1e-10

    # non-uniqueness: one (measure, g), two homogeneous parts, two solutions
    g = rr.triangle(1, 1) - rr.triangle(-1, 1)
    measure, f1 = rr.example_family("example1", g, rr.gaussian(0, 1))
    _, f2 = rr.example_family("example1", g, rr.gaussian(0, 1) + rr.triangle(0, 2))
    ts = np.linspace(-3, 3, 601)
    assert np.max(np.abs(f1(ts) - f2(ts))) > 0.1
    assert rr.residual_time(measure, f1, g).sup_residual <= 1e-10
    assert rr.residual_time(measure, f2, g).sup_residual <= 1e-10
    _report(6, "symmetry families solve; non-uniqueness witnessed", started, 5.0)


def test_c07_picard_fourier_cross_check():
    started = time.perf_counter()
    measure = rr.build_measure([(0.5, 1.0, 1.0)])
    f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
    g = rr.manufacture_inhomogeneity(measure, f)

    result = rr.picard_iterate(measure, g, (-10.0, 10.0), 1e-3, tol=1e-9)
    assert result.converged
    candidate = rr.differentiate(result.cdf)

    spec = rr.solve_spectrum(measure, g, 0.0, rr.symmetric_grid(40.0, 4097))
    ts = np.linspace(-10.0, 10.0, 20001)
    spectral = rr.invert_spectrum(spec, ts)
    rel_l1 = (np.trapezoid(np.abs(candidate(ts) - spectral.values), ts)
              / np.trapezoid(np.abs(spectral.values), ts))
    assert rel_l1 <= 0.05

    probes = np.linspace(-8.0, 8.0, 801) + 4.1e-4
    residual = rr.cdf_equation_residual(measure, result.cdf, g, probes)
    assert residual <= 1e-6

    second = rr.picard_iterate(measure, g, (-10.0, 10.0), 1e-3, tol=1e-9,
                               start="forcing")
    gap = float(np.max(np.abs(result.cdf.values - second.cdf.values)))
    assert gap <= 1e-6
    _report(7, f"iteration vs spectrum rel L1 {rel_l1:.2e}, "
               f"residual {residual:.2e}, two-start gap {gap:.2e}", started, 60.0)


def _fixed_point_scan(measure):
    candidates = [0.0] + [m / (1.0 - l) for l, m, _ in measure.atoms if l != 1.0]

    def satisfied_by(c):
        return all(
            abs(m - c * (1.0 - l)) <= FIXED_POINT_RTOL
            * max(1.0, abs(m), abs(c) * (1.0 + abs(l)))
            for l, m, _ in measure.atoms
        )

    for c in candidates:
        if satisfied_by(c):
            return False, c
    return True, None


def test_c08_fixed_point_condition_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    measures = []
    for k in range(100):
        if k % 2 == 0:
            c = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]))
            ls = rng.choice([-2.0, -1.0, -0.5, 0.5, 2.0, 4.0], size=3)
            measures.append(rr.build_measure(
                [(l, c * (1.0 - l), 1.0 / 3.0) for l in ls]))
        else:
            ls = rng.uniform(0.3, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
            ms = rng.uniform(-2.0, 2.0, 3)
            ps = rng.uniform(0.1, 1.0, 3)
            measures.append(rr.build_measure(zip(ls, ms, ps / ps.sum())))
    for measure in measures:
        holds, _ = rr.check_no_common_fixed_point(measure)
        expected, _ = _fixed_point_scan(measure)
        assert holds == expected

    # the shifted-reflection fixture, atoms read literally off the mixing
    # law (scale w, shift 1 - w on w in {-1, 1}): the condition fails with
    # witness 1, a documented discrepancy with the family's description
    fixture = rr.build_measure([(-1, 2, 0.5), (1, 0, 0.5)])
    holds, witness = rr.check_no_common_fixed_point(fixture)
    assert not holds
    assert witness == 1.0
    _report(8, "fixed-point condition matches brute-force scan on 101 measures",
            started, 10.0)


def test_c09_integrability_diagnostic():
    started = time.perf_counter()
    windows = [(-8.0, 10.0), (-16.0, 10.0), (-32.0, 10.0), (-64.0, 10.0)]

    harmonic = staircase_cdf(-64.0, 10.0, 1e-3)
    flag, trend = rr.integrability_diagnostic(harmonic, windows)
    assert not flag
    expected = [sum(2.0 / (n + 1) for n in range(int(-lo // 2))) for lo, _ in windows]
    assert np.allclose(trend, expected, rtol=1e-2)

    f = rr.gaussian(0, 1)
    smooth = rr.GridFn.from_function(f.antiderivative, -64.0, 10.0, 1e-3,
                                     right_value=f.mass())
    flag_smooth, trend_smooth = rr.integrability_diagnostic(smooth, windows)
    assert flag_smooth
    assert trend_smooth[-1] == pytest.approx(f.mass(), rel=1e-3)
    _report(9, f"harmonic trend {trend[-1]:.2f} flagged divergent; "
               f"smooth trend -> {trend_smooth[-1]:.3f}", started, 5.0)


def test_c10_gate_checks(tmp_path):
    started = time.perf_counter()
    from randrefine.cli import main

    measure = rr.build_measure([(0.5, 1.0, 1.0)])
    f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
    g = rr.manufacture_inhomogeneity(measure, f)

    bad_mean = dict(
        measure=json.loads(measure.to_json()),
        g=[{"coef": 1.0, "kind": "indicator", "params": [0, 1]}],
    )
    path = tmp_path / "bad_mean.json"
    path.write_text(json.dumps(bad_mean), encoding="utf-8")
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "o1")]) == 4

    critical = dict(
        measure=[{"l": -1, "m": 0, "p": 0.5}, {"l": 1, "m": 0, "p": 0.5}],
        g=[{"coef": 1.0, "kind": "triangle", "params": [1, 1]},
           {"coef": -1.0, "kind": "triangle", "params": [-1, 1]}],
    )
    path = tmp_path / "critical.json"
    path.write_text(json.dumps(critical), encoding="utf-8")
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "o2")]) == 3

    spec = rr.solve_spectrum(measure, g, 0.0, rr.symmetric_grid(40.0, 2049))
    origin = abs(spec.value_at(0.0))
    assert origin <= 1e-9
    _report(10, f"exit gates 4 and 3; contractive mass at 0 is {origin:.1e}",
            started, 10.0)
