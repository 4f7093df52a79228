import math

import numpy as np
import pytest

import randrefine as rr
import randrefine.gridfn as gridfn
from conftest import staircase_cdf
from randrefine.picard import _BLOCK, _interp_plan


def _picard_interp_oracle(measure, g, window, step, tol, max_iter, start):
    """The sweep loop as it was before the precomputed plan: one np.interp
    per atom and sweep, full-size temporaries."""
    t_min, t_max = window
    n = int(round((t_max - t_min) / step)) + 1
    nodes = np.linspace(t_min, t_max, n)
    forcing = g.antiderivative(nodes)
    image_points = [l * nodes - m for l, m, _ in measure.atoms]
    values = np.zeros(n) if start == "zero" else forcing.copy()
    deltas = []
    converged = False
    for _ in range(max_iter):
        new = forcing.copy()
        for pts, p in zip(image_points, measure.weights):
            new += p * np.interp(pts, nodes, values, left=0.0, right=values[-1])
        delta = float(np.max(np.abs(new - values)))
        values = new
        deltas.append(delta)
        if delta < tol:
            converged = True
            break
    return values, tuple(deltas), converged


class TestGridFn:
    def test_interpolation_and_extrapolation(self):
        fn = rr.GridFn(0.0, 1.0, 0.5, np.array([0.0, 1.0, 0.0]), -5.0, 7.0)
        assert fn(0.25) == 0.5
        assert fn(-1.0) == -5.0
        assert fn(2.0) == 7.0

    def test_right_extrapolation_defaults_to_edge(self):
        fn = rr.GridFn(0.0, 1.0, 0.5, np.array([1.0, 2.0, 3.0]))
        assert fn(5.0) == 3.0
        assert fn(-5.0) == 0.0

    def test_length_validated(self):
        with pytest.raises(ValueError):
            rr.GridFn(0.0, 1.0, 0.5, np.zeros(4))

    def test_from_function_hits_nodes(self):
        fn = rr.GridFn.from_function(np.sin, 0.0, math.pi, math.pi / 100)
        assert fn(math.pi / 2) == pytest.approx(1.0, abs=1e-4)


class TestDifferentiate:
    def test_recovers_gaussian_from_its_integral(self):
        f = rr.gaussian(0, 1)
        cdf = rr.GridFn.from_function(f.antiderivative, -8.0, 8.0, 1e-3)
        deriv = rr.differentiate(cdf)
        assert np.max(np.abs(deriv.values - f(deriv.nodes))) <= 1e-5

    def test_constant_gives_zero(self):
        cdf = rr.GridFn(0.0, 1.0, 0.1, np.full(11, 3.0))
        assert np.all(rr.differentiate(cdf).values == 0.0)

    def test_linear_gives_unit_slope(self):
        cdf = rr.GridFn.from_function(lambda t: t, 0.0, 1.0, 0.1)
        deriv = rr.differentiate(cdf)
        assert np.allclose(deriv.values, 1.0)


class TestPicardIterate:
    def test_halving_with_step_forcing_self_consistent(self):
        m = rr.build_measure([(0.5, 0, 1.0)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        res = rr.picard_iterate(m, g, (-6, 6), 1e-3, tol=1e-9)
        assert res.converged
        probes = res.cdf.nodes[200:-200:37]
        assert rr.cdf_equation_residual(m, res.cdf, g, probes) <= 2e-9

    def test_matches_running_integral_up_to_constant(self, contractive_pair):
        # the iteration map is neutral on constants; it pins the solution
        # that vanishes at the attractor, not at -infinity
        measure, f, g = contractive_pair
        res = rr.picard_iterate(measure, g, (-10, 10), 1e-3, tol=1e-9)
        exact = f.antiderivative(res.cdf.nodes)
        diff = res.cdf.values - exact
        assert np.max(diff) - np.min(diff) <= 1e-6
        assert np.max(np.abs(diff + f.antiderivative(-2.0))) <= 1e-6

    def test_matches_running_integral_when_mass_clears_attractor(self):
        # all of f's mass sits right of the attractor point -2, so the
        # two anchorings coincide and F equals the running integral
        measure = rr.build_measure([(0.5, 1, 1.0)])
        f = rr.gaussian(4, 1) - rr.gaussian(7, 1)
        g = rr.manufacture_inhomogeneity(measure, f)
        res = rr.picard_iterate(measure, g, (-12, 38), 1e-3, tol=1e-9)
        inner = slice(300, -300)
        exact = f.antiderivative(res.cdf.nodes)
        # floor set by per-sweep interpolation error, step^2 |f'|/8 summed
        # through the contraction, not by tol
        assert np.max(np.abs(res.cdf.values[inner] - exact[inner])) <= 5e-7

    def test_zero_forcing_fixed_immediately(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        res = rr.picard_iterate(m, rr.zero_fn(), (-5, 5), 1e-2, tol=1e-12)
        assert res.iterations == 1
        assert np.all(res.cdf.values == 0.0)

    def test_two_starts_agree(self, contractive_pair):
        measure, _, g = contractive_pair
        a = rr.picard_iterate(measure, g, (-10, 10), 1e-2, tol=1e-10)
        b = rr.picard_iterate(measure, g, (-10, 10), 1e-2, tol=1e-10,
                              start="forcing")
        assert np.max(np.abs(a.cdf.values - b.cdf.values)) <= 1e-8

    def test_contraction_rate_bounded_by_mean_scale(self, contractive_pair):
        measure, _, g = contractive_pair
        res = rr.picard_iterate(measure, g, (-10, 10), 1e-2, tol=1e-11)
        late = res.deltas[-6:]
        ratios = [b / a for a, b in zip(late[:-1], late[1:]) if a > 0]
        mean_scale = rr.classify_regime(measure).mean_scale
        assert max(ratios) <= mean_scale + 0.05

    def test_mean_expansive_refused(self):
        m = rr.build_measure([(2, 1, 1.0)])
        with pytest.raises(rr.NotMeanContractive):
            rr.picard_iterate(m, rr.zero_fn(), (-1, 1), 0.1)

    def test_negative_scale_refused(self):
        m = rr.build_measure([(-0.5, 1, 1.0)])
        with pytest.raises(rr.NegativeScale):
            rr.picard_iterate(m, rr.zero_fn(), (-1, 1), 0.1)

    def test_max_iter_soft_flag(self, contractive_pair):
        measure, _, g = contractive_pair
        res = rr.picard_iterate(measure, g, (-10, 10), 1e-2, tol=1e-12,
                                max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_integral_identity_warning(self):
        # limit law is a point mass at -2; a forcing term with mass on the
        # far left breaks the integral identity and triggers the warning
        measure = rr.build_measure([(0.5, 1, 1.0)])
        g_bad = rr.indicator(-4, -3) - rr.indicator(3, 4)
        with pytest.warns(UserWarning, match="integral identity"):
            rr.picard_iterate(measure, g_bad, (-6, 6), 1e-2,
                              check_integral_identity=True)

    def test_integral_identity_quiet_when_satisfied(self):
        import warnings
        measure = rr.build_measure([(0.5, 1, 1.0)])
        g_ok = rr.indicator(3, 4) - rr.indicator(5, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rr.picard_iterate(measure, g_ok, (-10, 10), 1e-2,
                              check_integral_identity=True)


def _manufactured(atoms, f):
    measure = rr.build_measure(atoms)
    return measure, rr.manufacture_inhomogeneity(measure, f)


_TWO_ATOMS = _manufactured([(0.5, 0.5, 0.5), (0.75, -1.0, 0.5)],
                           rr.gaussian(0.3, 0.8) - 0.5 * rr.triangle(-1.0, 1.2))
_THREE_ATOMS = _manufactured([(0.25, 1.0, 0.25), (0.5, -0.5, 0.25), (0.75, 0.0, 0.5)],
                             rr.gaussian(-0.4, 0.9) + 0.3 * rr.triangle(1.0, 1.0))
# images of the window's edges fall off both sides, partly inside
_LEAVES_WINDOW = _manufactured([(0.5, 2.5, 0.5), (0.5, -2.5, 0.5)], rr.triangle(0.0, 1.0))
_EXPANDING_ATOM = _manufactured([(1.5, 0.3, 0.2), (0.25, -1.0, 0.8)], rr.gaussian(0.5, 1.0))
# the window and step are binary fractions, so l=0.5, m=0.25 hits nodes exactly
_NODE_HITS = _manufactured([(0.5, 0.25, 0.6), (0.75, -0.5, 0.4)], rr.triangle(0.0, 1.5))


class TestPicardMatchesInterpOracle:
    @pytest.mark.parametrize("start", ["zero", "forcing"])
    @pytest.mark.parametrize("problem, window, step, tol, max_iter", [
        (_TWO_ATOMS, (-8.0, 8.0), 1e-2, 1e-10, 400),
        (_THREE_ATOMS, (-8.0, 8.0), 1e-2, 1e-10, 400),
        (_LEAVES_WINDOW, (-4.0, 4.0), 1e-2, 1e-10, 400),
        (_EXPANDING_ATOM, (-6.0, 6.0), 1e-2, 1e-10, 400),
        (_NODE_HITS, (-4.0, 4.0), 1.0 / 64, 1e-12, 400),
        # n = 2 * _BLOCK + 77: two block edges and a short last block
        (_THREE_ATOMS, (-10.0, 10.0), 20.0 / (2 * _BLOCK + 76), 0.0, 6),
        # n == 2: one interval
        (_TWO_ATOMS, (-1.0, 1.0), 2.0, 1e-12, 50),
    ], ids=["two-atoms", "three-atoms", "leaves-window", "expanding-atom",
            "node-hits", "several-blocks", "two-nodes"])
    def test_bit_identical(self, problem, window, step, tol, max_iter, start):
        measure, g = problem
        res = rr.picard_iterate(measure, g, window, step, tol, max_iter, start=start)
        values, deltas, converged = _picard_interp_oracle(
            measure, g, window, step, tol, max_iter, start)
        assert np.array_equal(res.cdf.values, values)
        assert res.deltas == deltas
        assert res.iterations == len(deltas)
        assert res.converged == converged

    def test_cases_reach_the_edges_they_name(self):
        def plan(window, step, l, m):
            n = int(round((window[1] - window[0]) / step)) + 1
            nodes = np.linspace(*window, n)
            return n, _interp_plan(nodes, l, m)

        n, (a, b, _, _) = plan((-4.0, 4.0), 1e-2, 0.5, 2.5)
        assert 0 < a < b == n
        n, (a, b, _, _) = plan((-4.0, 4.0), 1e-2, 0.5, -2.5)
        assert 0 == a < b < n
        n, (a, b, _, _) = plan((-6.0, 6.0), 1e-2, 1.5, 0.3)
        assert 0 < a < b < n
        _, (_, _, _, off) = plan((-4.0, 4.0), 1.0 / 64, 0.5, 0.25)
        assert np.count_nonzero(off == 0.0) > 200


class TestPicardRejectsBadGrid:
    @pytest.mark.parametrize("window, step", [
        ((-10.0, math.nan), 1e-2),
        ((-math.inf, 10.0), 1e-2),
        ((10.0, -10.0), 1e-2),
        ((1.0, 1.0), 1e-2),
        ((-10.0, 10.0), 0.0),
        ((-10.0, 10.0), -1e-2),
        ((-10.0, 10.0), math.nan),
        ((-10.0, 10.0), math.inf),
        ((0.0, 1e-4), 1e-3),
    ], ids=["nan-end", "infinite-start", "reversed", "empty", "zero-step",
            "negative-step", "nan-step", "infinite-step", "one-node"])
    def test_bad_window_or_step(self, contractive_pair, window, step):
        measure, _, g = contractive_pair
        with pytest.raises(ValueError):
            rr.picard_iterate(measure, g, window, step)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one(self, contractive_pair, max_iter):
        measure, _, g = contractive_pair
        with pytest.raises(ValueError, match="max_iter"):
            rr.picard_iterate(measure, g, (-10, 10), 1e-2, max_iter=max_iter)


class TestGridBudget:
    """Grids above the node budget are refused before anything is allocated."""

    @pytest.mark.parametrize("step", [1e-15, 1e-320], ids=["tiny", "overflowing"])
    def test_tiny_step_refused(self, contractive_pair, step):
        measure, _, g = contractive_pair
        with pytest.raises(ValueError, match="budget"):
            rr.picard_iterate(measure, g, (-10.0, 10.0), step)

    def test_budget_boundary(self):
        budget = gridfn.MAX_GRID_NODES
        assert gridfn.grid_size(0.0, 1.0, 1.0 / (budget - 1)) == budget
        with pytest.raises(ValueError, match=f"{budget + 1} nodes"):
            gridfn.grid_size(0.0, 1.0, 1.0 / budget)


class TestCdfEquationResidual:
    def test_zero_candidate_sees_forcing_integral(self):
        m = rr.build_measure([(0.5, 0, 1.0)])
        g = rr.indicator(0, 1)  # G saturates at 1
        zero = rr.GridFn(-5.0, 5.0, 0.1, np.zeros(101), 0.0, 0.0)
        probes = np.linspace(-4, 4, 81)
        expected = float(np.max(np.abs(g.antiderivative(probes))))
        assert rr.cdf_equation_residual(m, zero, g, probes) == pytest.approx(expected)

    def test_running_integral_of_solution_is_near_fixed(self, contractive_pair):
        measure, f, g = contractive_pair
        cdf = rr.GridFn.from_function(f.antiderivative, -10.0, 10.0, 1e-3,
                                      right_value=float(f.antiderivative(10.0)))
        probes = np.linspace(-7, 7, 141) + 0.0004
        assert rr.cdf_equation_residual(measure, cdf, g, probes) <= 1e-6


class TestIntegrabilityDiagnostic:
    windows = [(-8.0, 10.0), (-16.0, 10.0), (-32.0, 10.0), (-64.0, 10.0)]

    def test_harmonic_staircase_flagged_non_integrable(self):
        cdf = staircase_cdf(-64.0, 10.0, 1e-3)
        flag, trend = rr.integrability_diagnostic(cdf, self.windows)
        assert not flag
        for (lo, _), measured in zip(self.windows, trend):
            n_dips = int(-lo // 2)
            expected = sum(2.0 / (n + 1) for n in range(n_dips))
            assert measured == pytest.approx(expected, rel=1e-2)

    def test_gaussian_integral_flagged_integrable(self):
        f = rr.gaussian(0, 1)
        cdf = rr.GridFn.from_function(f.antiderivative, -64.0, 10.0, 1e-3,
                                      right_value=f.mass())
        flag, trend = rr.integrability_diagnostic(cdf, self.windows)
        assert flag
        assert trend[-1] == pytest.approx(f.mass(), rel=1e-3)

    def test_constant_flagged_integrable_with_zero_trend(self):
        cdf = rr.GridFn(-64.0, 10.0, 1e-2, np.full(7401, 2.5), 2.5, 2.5)
        flag, trend = rr.integrability_diagnostic(cdf, self.windows)
        assert flag
        assert np.allclose(trend, 0.0)

    def test_needs_three_windows(self):
        cdf = rr.GridFn(-4.0, 4.0, 0.1, np.zeros(81))
        with pytest.raises(ValueError):
            rr.integrability_diagnostic(cdf, [(-2, 2), (-4, 4)])
