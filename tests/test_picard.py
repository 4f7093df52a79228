import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import randrefine as rr
import randrefine.gridfn as gridfn
from conftest import staircase_cdf
from randrefine.picard import _BLOCK, _interp_plan, _sweep


def _picard_interp_oracle(measure, g, window, step, tol, max_iter, start):
    """The sweep loop as it was before the precomputed plan and the jump:
    plain sweeps, one np.interp per atom and sweep, full-size temporaries.
    ``start`` is "zero", "forcing" or an array of start values."""
    t_min, t_max = window
    n = int(round((t_max - t_min) / step)) + 1
    nodes = np.linspace(t_min, t_max, n)
    forcing = g.antiderivative(nodes)
    image_points = [l * nodes - m for l, m, _ in measure.atoms]
    if isinstance(start, str):
        values = np.zeros(n) if start == "zero" else forcing.copy()
    else:
        values = np.array(start, dtype=float)
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

    @pytest.mark.parametrize("t_min, t_max, step", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.5), (1.0, 0.0, 0.5), (0.0, 1.0, float("nan")),
    ], ids=["zero-step", "negative-step", "reversed-window", "nan-step"])
    def test_bad_grid_refused(self, t_min, t_max, step):
        with pytest.raises(ValueError):
            rr.GridFn(t_min, t_max, step, np.zeros(3))

    def test_from_function_refuses_over_budget_before_allocating(self):
        with pytest.raises(ValueError, match="budget"):
            rr.GridFn.from_function(np.sin, 0.0, 1.0, 1e-15)

    def test_from_function_hits_nodes(self):
        fn = rr.GridFn.from_function(np.sin, 0.0, math.pi, math.pi / 100)
        assert fn(math.pi / 2) == pytest.approx(1.0, abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20_000), t_min=st.floats(-50, 50), width=st.floats(1e-3, 100),
           seed=st.integers(0, 2**32 - 1))
    # 300 * (2.9 / 300) - 1.3 rounds below t_max, so linspace's last node is
    # not k * step + t_min
    @example(n=301, t_min=-1.3, width=2.9, seed=0)
    def test_matches_interp_on_linspace_nodes_bytes(self, n, t_min, width, seed):
        # probes off, on and one ulp either side of nodes, at both ends and
        # outside the window; in groups of 8, fewer than n/32 probes build
        # only the nodes around them
        t_max = t_min + width
        assume(t_min < t_max)
        try:
            fn = rr.GridFn(t_min, t_max, width / (n - 1),
                           np.random.default_rng(seed).normal(size=n), -2.0, 3.0)
        except ValueError:
            assume(False)
        nodes = np.linspace(t_min, t_max, n)
        rng = np.random.default_rng(seed)
        at = nodes[rng.integers(0, n, 40)]
        probes = np.concatenate([
            rng.uniform(t_min - 1, t_max + 1, 80), at, np.nextafter(at, np.inf),
            np.nextafter(at, -np.inf), [t_min, t_max, np.nextafter(t_max, -np.inf), t_max + 1],
        ])
        oracle = np.interp(probes, nodes, fn.values, left=-2.0, right=3.0)
        assert fn(probes).tobytes() == oracle.tobytes()
        assert fn(probes.reshape(2, -1)).tobytes() == oracle.tobytes()
        for group in np.array_split(np.arange(len(probes)), len(probes) // 8):
            assert fn(probes[group]).tobytes() == oracle[group].tobytes()
        assert fn(float(probes[-3])) == oracle[-3]

    def test_nonfinite_probes_match_interp(self):
        fn = rr.GridFn(0.0, 1.0, 0.25, np.array([0.0, 1.0, 1.0, 2.0, 3.0]), -1.0, 5.0)
        probes = np.array([np.nan, np.inf, -np.inf, 0.3])
        oracle = np.interp(probes, fn.nodes, fn.values, left=-1.0, right=5.0)
        assert fn(probes).tobytes() == oracle.tobytes()


class TestLinspaceIndex:
    @settings(max_examples=100, deadline=None)
    @given(t0=st.floats(-1e3, 1e3), width_exp=st.floats(-3.0, 3.0), n=st.integers(2, 3000),
           seed=st.integers(0, 2**32 - 1))
    def test_within_one_interval(self, t0, width_exp, n, seed):
        nodes = np.linspace(t0, t0 + 10.0 ** width_exp, n)
        assume(nodes[0] < nodes[-1])
        rng = np.random.default_rng(seed)
        p = np.concatenate([rng.uniform(nodes[0], nodes[-1], 50), nodes[rng.integers(0, n, 20)]])
        j = gridfn.linspace_index(p, nodes[0], nodes[-1], n)
        true = np.minimum(np.searchsorted(nodes, p, side="right") - 1, n - 2)
        assert j.dtype == np.intp and np.all(np.abs(j - true) <= 1)

    def test_points_outside_clip_to_the_end_intervals(self):
        j = gridfn.linspace_index(np.array([-1e308, -5.0, 5.0, 1e308]), -1.0, 1.0, 11)
        assert j.tolist() == [0, 0, 9, 9]

    def test_grid_finer_than_its_rounding_gets_none(self):
        assert gridfn.linspace_index(np.array([1e15]), 1e15, 1e15 + 1.0, 1001) is None


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


# The README's problem; its forcing is given, not manufactured.
_README = (rr.build_measure([(0.5, 1.0, 1.0)]),
           rr.gaussian(0, 1) - rr.gaussian(3, 1) - 0.5 * rr.gaussian(2, 2)
           + 0.5 * rr.gaussian(8, 2))

_ORACLE_CASES = pytest.mark.parametrize("problem, window, step, tol, max_iter", [
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

_EPS = np.finfo(float).eps


def _window_modes(measure):
    """(rho_k, half width) of the modes the jump may use: rho_k = E L^k for
    k = 1, 2, 3, while rho_k falls below rho_{k-1} (rho_0 = 1)."""
    modes, prev = [], 1.0
    for k in (1, 2, 3):
        rho = float(np.dot(measure.weights, measure.scales ** k))
        if not rho < prev:
            break
        modes.append((rho, min(0.05 * rho, 0.1 * (1.0 - rho))))
        prev = rho
    return modes


def _possible_jumps(measure, deltas):
    """(sweep, k) where the jump may fire, on the mode of ratio E L^k: the two
    delta ratios before the sweep lie in the window of mode k, the first
    mode whose window holds each.  The jumps are a subset, since they also
    need plain iterates around those ratios and three sweeps since the last
    one.  Returned with E L, whose c = E L / (1 - E L) is the largest of
    the modes'."""
    modes = _window_modes(measure)

    def mode(a, b):
        return next((k for k, (rho, width) in enumerate(modes)
                     if a > 0 and abs(b - rho * a) <= width * a), None)

    # settled[k] is the mode of the ratio deltas[k + 1] / deltas[k]
    settled = [mode(a, b) for a, b in zip(deltas[:-1], deltas[1:])]
    return [(j, settled[j - 2] + 1) for j in range(3, len(deltas))
            if settled[j - 2] is not None and settled[j - 2] == settled[j - 3]], modes[0][0]


def _assert_near_oracle(measure, g, window, step, tol, max_iter, start):
    """The run against the plain oracle, with the bound its jumps allow.

    The interpolation part A of a sweep is a non-negative sub-stochastic
    matrix, so ``|A e| <= |e|`` in the sup norm.  A jump at sweep j adds
    ``c d_j`` (``c = rho / (1 - rho)``, ``|d_j| = deltas[j]``) to a plain
    sweep, so after K sweeps the run is within ``c * sum deltas[j]`` over
    its jumps of the oracle's K-th iterate.  That iterate is within the
    oracle's own deltas between K and its sweep count of what it returns.
    Rounding adds a few eps per sweep on each side.
    """
    res = rr.picard_iterate(measure, g, window, step, tol, max_iter, start=start)
    values, deltas, converged = _picard_interp_oracle(
        measure, g, window, step, tol, max_iter, start)
    assert res.converged == converged
    jumps, rho = _possible_jumps(measure, res.deltas)
    k, k_oracle = res.iterations, len(deltas)
    if k > k_oracle:
        _, deltas, _ = _picard_interp_oracle(measure, g, window, step, 0.0, k, start)
    nodes = res.cdf.nodes
    scale = max(1.0, np.max(np.abs(values)), np.max(np.abs(g.antiderivative(nodes))))
    bound = (rho / (1.0 - rho) * sum(res.deltas[j] for j, _ in jumps)
             + sum(deltas[min(k, k_oracle):max(k, k_oracle)])
             + 16 * max(k, k_oracle) * _EPS * scale)
    assert np.max(np.abs(res.cdf.values - values)) <= bound

    # The returned values are a plain sweep T y of the last iterate y, so one
    # more sweep moves them by |A (T y - y)| <= final_delta.
    _, (residual,), _ = _picard_interp_oracle(
        measure, g, window, step, 0.0, 1, res.cdf.values)
    assert residual <= res.final_delta + 16 * _EPS * scale
    return res, k_oracle


class TestPicardMatchesInterpOracle:
    @pytest.mark.parametrize("start", ["zero", "forcing"])
    @_ORACLE_CASES
    def test_bit_identical(self, problem, window, step, tol, max_iter, start):
        # Three sweeps leave no room for a jump (it needs two settled ratios,
        # so three deltas before it): every bit is np.interp's.
        measure, g = problem
        short = min(max_iter, 3)
        res = rr.picard_iterate(measure, g, window, step, tol, short, start=start)
        values, deltas, converged = _picard_interp_oracle(
            measure, g, window, step, tol, short, start)
        assert np.array_equal(res.cdf.values, values)
        assert res.deltas == deltas
        assert res.iterations == len(deltas)
        assert res.converged == converged

    @pytest.mark.parametrize("start", ["zero", "forcing"])
    @_ORACLE_CASES
    def test_full_run_within_jump_bound(self, problem, window, step, tol, max_iter, start):
        measure, g = problem
        _assert_near_oracle(measure, g, window, step, tol, max_iter, start)

    @pytest.mark.parametrize("problem, window, step, expected", [
        (_README, (-10.0, 10.0), 1e-3, [(11, 1)]),
        # stalls at its floor, after two jumps four sweeps apart
        (_manufactured([(0.22, 0.27, 0.2), (0.97, 0.59, 0.8)],
                       rr.gaussian(-0.53, 0.8) - 0.5 * rr.triangle(0.53, 1.0)),
         (-8.0, 8.0), 0.05, [(7, 1), (11, 1)]),
        # the ratio after each jump stays in the window: it must be skipped
        (_manufactured([(0.16, 0.95, 0.25), (0.92, 0.34, 0.75)],
                       rr.gaussian(0.29, 0.8) - 0.5 * rr.triangle(-0.29, 1.0)),
         (-8.0, 8.0), 0.1, [(9, 1), (13, 1)]),
        # after the E L jump the ratio settles on E L^2 = 0.406
        (_TWO_ATOMS, (-8.0, 8.0), 1e-2, [(8, 1), (13, 2)]),
        # E L = 0.65 and E L^2 = 0.625: ratios in both windows count for E L
        (_manufactured([(1.1, 0.5, 0.5), (0.2, -0.5, 0.5)], rr.gaussian(0.5, 1.0)),
         (-8.0, 8.0), 1e-2, [(8, 1)]),
    ], ids=["readme", "two-jumps", "ratio-after-jump-settled", "second-mode",
            "overlapping-windows"])
    def test_jumps_follow_the_rule(self, problem, window, step, expected):
        # A run of j + 1 sweeps ends on a plain sweep, so it returns T x_j.
        # One sweep more returns T x_{j+1}: one oracle sweep of that, unless
        # sweep j jumped to T x_j + c_k (T x_j - x_j), with x_j what a run of
        # j sweeps returns.  So the jumps and their modes can be seen from
        # outside, and they must be the rule's: the sweeps whose two previous
        # ratios lie in one mode's window, at least four apart, none of them
        # the last.  ``jumps`` reports them.
        measure, g = problem

        def sweep(values):
            return _picard_interp_oracle(measure, g, window, step, 0.0, 1, values)[0]

        cs = [rho / (1.0 - rho) for rho, _ in _window_modes(measure)]
        full = rr.picard_iterate(measure, g, window, step, 1e-9, max_iter=20)
        seen = []
        prev = np.zeros_like(full.cdf.values)  # x_0: the "zero" start
        head = rr.picard_iterate(measure, g, window, step, 1e-9, max_iter=1).cdf.values
        for j in range(min(full.iterations, 20) - 1):
            after = rr.picard_iterate(measure, g, window, step, 1e-9,
                                      max_iter=j + 2).cdf.values
            if not np.array_equal(sweep(head), after):
                d = head - prev
                seen.append((j, *[k for k, c in enumerate(cs, 1)
                                  if np.array_equal(sweep(head + d * c), after)]))
            prev, head = head, after
        rule = []
        for j, k in _possible_jumps(measure, full.deltas)[0]:
            if (not rule or j >= rule[-1][0] + 4) and j < 19:
                rule.append((j, k))
        assert seen == rule == expected
        assert full.jumps == tuple(expected)

    def test_scale_above_one_leaves_second_mode_out(self):
        # E L = 0.325 but E L^2 = 0.366: the quadratic mode grows against
        # the affine one, and no mode past it is used.  Two successive ratios
        # (sweeps 6 and 7) lie in the window an E L^2 mode would have, and no
        # E L window: a rule that kept the mode would jump at sweep 8.
        atoms = [(1.54, -0.62, 0.15), (0.11, 0.72, 0.85)]
        measure, g = _manufactured(atoms, rr.gaussian(0.3, 0.8) - 0.5 * rr.triangle(-0.3, 1.0))
        (rho, width), = _window_modes(measure)
        rho2 = sum(p * l**2 for l, _, p in atoms)
        assert rho < rho2 < 1.0
        width2 = min(0.05 * rho2, 0.1 * (1.0 - rho2))
        res, _ = _assert_near_oracle(measure, g, (-8.0, 8.0), 0.05, 1e-9, 60, "zero")
        r = [b / a for a, b in zip(res.deltas[:-1], res.deltas[1:])]
        assert all(abs(q - rho2) <= width2 and abs(q - rho) > width for q in r[5:7])
        assert all(k == 1 for _, k in res.jumps)

    def test_jump_sweep_never_converges(self):
        # A tol that the jump sweep's delta already meets: a plain sweep
        # follows, and it is that sweep's delta that converges.
        measure, g = _README
        full = rr.picard_iterate(measure, g, (-10.0, 10.0), 1e-3, 1e-9)
        ((j, _), *_), _ = _possible_jumps(measure, full.deltas)
        tol = 0.5 * (full.deltas[j - 1] + full.deltas[j])
        assert min(full.deltas[:j]) > tol > full.deltas[j]
        res = rr.picard_iterate(measure, g, (-10.0, 10.0), 1e-3, tol)
        assert res.converged and res.iterations == j + 2
        assert res.deltas == full.deltas[:j + 2]

    def test_jump_cuts_sweeps(self):
        # The README problem: 31 plain sweeps, 16 with the jump.
        measure, g = _README
        res, oracle_sweeps = _assert_near_oracle(
            measure, g, (-10.0, 10.0), 1e-3, 1e-9, 500, "zero")
        assert res.converged
        assert (res.iterations, oracle_sweeps) == (16, 31)

    def test_stall_never_jumps(self):
        # The benchmark's stall probe: the constant drifts by step**2 / 16 per
        # sweep, so the delta ratio tends to 1 and the run ends at max_iter.
        measure = rr.build_measure([(0.5, 0.0, 0.5), (0.5, -0.5, 0.5)])
        g = rr.manufacture_inhomogeneity(measure, rr.triangle(0.0, 1.0))
        window, step, tol = (-10.0, 10.0), 1e-3, 1e-9
        res = rr.picard_iterate(measure, g, window, step, tol)
        assert res.iterations == 500 and not res.converged
        assert res.final_delta == pytest.approx(step**2 / 16, rel=1e-6)
        assert res.deltas[-1] / res.deltas[-2] == pytest.approx(1.0, abs=1e-9)
        # No jump after the ratio leaves the window: the run that stops just
        # past the last possible jump, continued by plain oracle sweeps,
        # gives every later bit.
        jumps, _ = _possible_jumps(measure, res.deltas)
        assert jumps and jumps[-1][0] < 100
        k = jumps[-1][0] + 2
        head = rr.picard_iterate(measure, g, window, step, tol, max_iter=k)
        values, deltas, converged = _picard_interp_oracle(
            measure, g, window, step, tol, 500 - k, head.cdf.values)
        assert not converged
        assert deltas == res.deltas[k:]
        assert np.array_equal(values, res.cdf.values)

    def test_near_critical_mean_scale_does_not_diverge(self):
        # E L = 0.993.  A window of 5% of E L lets a mode of ratio 0.96
        # settle, and a jump sized for E L scales it by
        # (0.96 - E L) / (1 - E L) = -5, so the run grows to 1e72.  A half
        # width of 0.1 (1 - E L) shrinks every mode it lets through.
        measure, g = _manufactured([(1.34, -0.38, 2 / 3), (0.3, 1.47, 1 / 3)],
                                   rr.gaussian(-0.5, 0.8) - 0.5 * rr.triangle(0.5, 1.0))
        res, _ = _assert_near_oracle(measure, g, (-8.0, 8.0), 0.05, 1e-9, 2000, "forcing")
        assert res.converged

    @settings(max_examples=40, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(st.floats(0.1, 1.6), st.floats(-2.0, 2.0), st.integers(1, 4)),
            min_size=1, max_size=3,
        ),
        mu=st.floats(-1.5, 1.5),
        step=st.sampled_from([1.0 / 8, 0.1, 1.0 / 16, 0.05]),
        start=st.sampled_from(["zero", "forcing"]),
    )
    def test_generated_measures_within_jump_bound(self, atoms, mu, step, start):
        # Positive, mean-contractive measures on coarse grids.  600 sweeps let
        # the oracle converge or stall at E L <= 0.9, so the flags compare.
        total = sum(w for _, _, w in atoms)
        measure = rr.build_measure([(l, m, w / total) for l, m, w in atoms])
        assume(rr.classify_regime(measure).mean_scale <= 0.9)
        g = rr.manufacture_inhomogeneity(
            measure, rr.gaussian(mu, 0.8) - 0.5 * rr.triangle(-mu, 1.0))
        _assert_near_oracle(measure, g, (-8.0, 8.0), step, 1e-9, 600, start)

    def test_cases_reach_the_edges_they_name(self):
        def plan(window, step, l, m):
            n = int(round((window[1] - window[0]) / step)) + 1
            nodes = np.linspace(*window, n)
            return n, _interp_plan(nodes, l, m)

        n, (j, _) = plan((-4.0, 4.0), 1e-2, 0.5, 2.5)
        assert 0 in j and n not in j
        n, (j, _) = plan((-4.0, 4.0), 1e-2, 0.5, -2.5)
        assert 0 not in j and n in j
        n, (j, _) = plan((-6.0, 6.0), 1e-2, 1.5, 0.3)
        assert 0 in j and n in j
        n, (j, off) = plan((-4.0, 4.0), 1.0 / 64, 0.5, 0.25)
        assert np.count_nonzero(off[(j > 0) & (j < n)] == 0.0) > 200


def _searchsorted_plan(nodes, l, m):
    """The plan by binary search over all nodes: ``J`` indexes the sentinel
    layout, and ``off`` is 0.0 outside the window."""
    with np.errstate(over="ignore"):
        pts = l * nodes - m
    j = np.searchsorted(nodes, pts, side="right")
    inside = (j > 0) & (j < len(nodes))
    off = np.where(inside, pts - nodes[np.maximum(j - 1, 0)], 0.0)
    return j.astype(np.int32), off


def _assert_same_plan(nodes, l, m):
    j, off = _interp_plan(nodes, l, m)
    j0, off0 = _searchsorted_plan(nodes, l, m)
    assert j.dtype == j0.dtype and np.array_equal(j, j0)
    assert off.tobytes() == off0.tobytes()
    assert not np.isnan(off).any()


class TestInterpPlanMatchesSearchsorted:
    @pytest.mark.parametrize("window, n, l, m", [
        ((-10.0, 10.0), 2 * _BLOCK + 77, 0.75, 0.5),
        ((-4.0, 4.0), 513, 0.5, 0.25),           # binary fractions: node hits
        ((-4.0, 4.0), 801, 0.5, 2.5),            # falls off the left
        ((-6.0, 6.0), 1201, 1.5, 0.3),           # falls off both sides
        ((-1.0, 1.0), 2, 0.6, 0.1),              # one interval
        ((1e4, 1e4 + 1e-6), 1001, 1.0, 3e-7),    # spacing 1e-9 next to 1e4
        ((1e15, 1e15 + 1.0), 1001, 1.0, -0.4),   # spacing below the rounding
        ((1e8, 1e8 + 1e-4), 20001, 1.0, 2e-5),   # of the nodes: binary search
        ((-6.0, 6.0), 1201, -1.5, 0.3),          # decreasing images, both sides
        ((1e9, 1e9 + 1.0), 1001, 1e300, 0.0),    # inf images: J == n, off == 0.0
    ], ids=["several-blocks", "node-hits", "left-edge", "both-edges", "two-nodes",
            "fine-offset", "collapsed-nodes", "near-collapsed-nodes",
            "negative-scale", "overflowing-image"])
    def test_fixed_grids(self, window, n, l, m):
        _assert_same_plan(np.linspace(*window, n), l, m)

    @settings(max_examples=200, deadline=None)
    @given(
        t0=st.floats(-1e3, 1e3),
        width_exp=st.floats(-3.0, 3.0),
        n=st.integers(2, 3000),
        l=st.floats(0.05, 2.0),
        sign=st.sampled_from([1.0, -1.0]),
        m_frac=st.floats(-1.0, 1.0),
    )
    def test_random_linspace_grids(self, t0, width_exp, n, l, sign, m_frac):
        width = 10.0 ** width_exp
        nodes = np.linspace(t0, t0 + width, n)
        l *= sign
        # a shift that sends some image points into the window
        m = l * t0 - t0 + m_frac * width
        _assert_same_plan(nodes, l, m)

    @settings(max_examples=40, deadline=None)
    @given(
        t0=st.floats(-1e3, 1e3),
        width_exp=st.floats(-3.0, 3.0),
        extra=st.integers(1, _BLOCK),
        l=st.floats(0.05, 4.0),
        sign=st.sampled_from([1.0, -1.0]),
        m_frac=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_atom_sweep_is_np_interp(self, t0, width_exp, extra, l, sign, m_frac, seed):
        # Images of either order, partly outside the window, on grids of
        # two full blocks and a part: the one gather is np.interp's, bit for
        # bit, ends included.
        n = 2 * _BLOCK + extra
        width = 10.0 ** width_exp
        nodes = np.linspace(t0, t0 + width, n)
        l *= sign
        m = l * t0 - t0 + m_frac * width
        v = np.random.default_rng(seed).standard_normal(n)
        values, new, slopes = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
        values[1:] = v
        delta = _sweep([(_interp_plan(nodes, l, m), 1.0)], np.zeros(n), values, new,
                       slopes, np.diff(nodes), None)
        expected = np.interp(l * nodes - m, nodes, v, left=0.0, right=v[-1])
        assert new[1:].tobytes() == expected.tobytes()
        assert new[0] == 0.0 and slopes[0] == slopes[n] == 0.0
        assert delta == np.max(np.abs(expected - v))


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

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, -math.inf],
                             ids=["nan", "negative", "infinite", "minus-infinite"])
    def test_bad_tol(self, contractive_pair, tol):
        # NaN or a negative tol ran all 500 sweeps; +inf "converged" in one.
        measure, _, g = contractive_pair
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            rr.picard_iterate(measure, g, (-10, 10), 1e-2, tol=tol)


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

    @pytest.mark.parametrize("probes, match", [
        ([], "must not be empty"),
        ([0.0, math.nan], "must be finite"),
        ([math.inf, 1.0], "must be finite"),
    ], ids=["empty", "nan", "infinite"])
    def test_bad_probes_refused(self, contractive_pair, probes, match):
        # empty probes raised numpy's zero-size error; a NaN returned nan
        measure, f, g = contractive_pair
        cdf = rr.GridFn.from_function(f.antiderivative, -10.0, 10.0, 1e-2)
        with pytest.raises(ValueError, match=f"probe_points {match}"):
            rr.cdf_equation_residual(measure, cdf, g, probes)

    def test_running_integral_of_solution_is_near_fixed(self, contractive_pair):
        measure, f, g = contractive_pair
        cdf = rr.GridFn.from_function(f.antiderivative, -10.0, 10.0, 1e-3,
                                      right_value=float(f.antiderivative(10.0)))
        probes = np.linspace(-7, 7, 141) + 0.0004
        assert rr.cdf_equation_residual(measure, cdf, g, probes) <= 1e-6

    def test_negative_scale_reads_f_at_infinity(self):
        # A negative l integrates to F(inf) - F(l x - m); subtracting
        # F(l x - m) alone read 1.25 here.
        f = rr.gaussian(0.2, 0.8) + 0.5 * rr.triangle(-0.5, 1.0)
        measure, g = _manufactured([(-0.5, 0.3, 0.5), (0.5, -0.2, 0.5)], f)
        cdf = rr.GridFn.from_function(f.antiderivative, -20.0, 20.0, 1e-3)
        assert rr.cdf_equation_residual(measure, cdf, g, np.linspace(-5, 5, 101)) <= 1e-12


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
