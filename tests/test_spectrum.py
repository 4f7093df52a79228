import cmath
import math

import numpy as np
import pytest

import randrefine as rr
from randrefine.perpetuity import generator


def _inverse_direct(values_w, xs, ts):
    """Reference oracle: the trapezoid inverse as one dense matrix product,
    ``sum_k values_w[k] exp(-i t_j x_k)``, blocked over output nodes."""
    out = np.empty(len(ts), dtype=complex)
    block = max(1, 4_000_000 // max(len(xs), 1))
    for start in range(0, len(ts), block):
        tb = ts[start:start + block]
        out[start:start + len(tb)] = np.exp(-1j * np.multiply.outer(tb, xs)) @ values_w
    return out


def _series_grid_mc_upfront(measure, g, xs, eps, n_max, sample_count, seed):
    """Reference oracle: the Monte Carlo series with every depth evaluated
    before the stopping rule runs (chunk first, depth second)."""
    rng = generator(seed)
    ls, ms = measure.scales, measure.shifts
    terms = np.zeros((n_max, len(xs)), dtype=complex)
    rows = max(1, 2_000_000 // max(n_max, 1))
    done = 0
    while done < sample_count:
        take = min(rows, sample_count - done)
        idx = rng.choice(len(ls), size=(take, n_max), p=measure.weights)
        prods = np.cumprod(ls[idx], axis=1)
        sums = np.cumsum(ms[idx] / prods, axis=1)
        xblock = max(1, 2_000_000 // take)
        for n in range(n_max):
            for start in range(0, len(xs), xblock):
                xb = xs[start:start + xblock]
                phases = np.exp(1j * np.multiply.outer(xb, sums[:, n]))
                hh = g.fourier(np.multiply.outer(xb, 1.0 / prods[:, n]))
                terms[n, start:start + len(xb)] += (phases * hh).sum(axis=1)
        done += take
    terms /= sample_count

    total = np.zeros(len(xs), dtype=complex)
    small_run = 0
    terms_used = 0
    last_max = math.inf
    for n in range(n_max):
        total += terms[n]
        terms_used = n + 1
        last_max = float(np.max(np.abs(terms[n])))
        small_run = small_run + 1 if last_max < eps else 0
        if small_run >= 3:
            return total, rr.TruncationReport(terms_used, last_max, True)
    return total, rr.TruncationReport(terms_used, last_max, False)


def _series_term_mc_single_draw(measure, h, x, n, sample_count, seed):
    """Reference oracle: T_n[h](x) from one unchunked index draw."""
    rng = generator(seed)
    ls, ms = measure.scales, measure.shifts
    idx = rng.choice(len(ls), size=(sample_count, n), p=measure.weights)
    prods = np.cumprod(ls[idx], axis=1)
    sums = (ms[idx] / prods).sum(axis=1)
    vals = np.exp(1j * x * sums) * h.fourier(x / prods[:, -1])
    est = complex(vals.mean())
    stderr = math.sqrt((vals.real.var() + vals.imag.var()) / sample_count)
    return est, stderr


class CountingFourier:
    """Forwards ``fourier`` to a closed form and counts the calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def fourier(self, x):
        self.calls += 1
        return self.fn.fourier(x)


def single_atom_term(l, m, ghat, x, n):
    """Hand-expanded path average for a one-atom measure:
    exp(i x sum_{k<=n} m/l^k) * ghat(x / l^n)."""
    phase = sum(m / l ** k for k in range(1, n + 1))
    return cmath.exp(1j * x * phase) * ghat(x / l ** n)


class TestSeriesTerm:
    def test_single_atom_closed_form(self):
        m = rr.build_measure([(2, 1, 1.0)])
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        for n in (1, 2, 5, 9):
            for x in (0.3, 1.0, 2.7, -4.0):
                expected = single_atom_term(2.0, 1.0, g.fourier, x, n)
                assert rr.series_term(m, g, x, n) == pytest.approx(expected, abs=1e-13)

    def test_zero_frequency_vanishes_for_admissible_g(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        assert abs(rr.series_term(m, g, 0.0, 3)) <= 1e-14

    def test_two_paths_hand_expansion(self):
        # depth 1, two atoms: 0.5*ghat(x/2) + 0.5*exp(ix/2)*ghat(x/2)
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        x = math.pi
        expected = 0.5 * g.fourier(x / 2) + 0.5 * cmath.exp(1j * x / 2) * g.fourier(x / 2)
        assert rr.series_term(m, g, x, 1) == pytest.approx(expected, abs=1e-14)

    def test_state_walk_matches_brute_paths(self):
        # mixed scales: compare the merged state walk against a literal
        # walk over atom**n paths
        import itertools
        m = rr.build_measure([(2, 1, 0.4), (0.5, -1, 0.6)])
        g = rr.gaussian(0, 1) - rr.gaussian(2, 1)
        x, n = 1.7, 5
        brute = 0j
        for path in itertools.product(m.atoms, repeat=n):
            prod, phase, w = 1.0, 0.0, 1.0
            for l, mm, p in path:
                prod *= l
                phase += mm / prod
                w *= p
            brute += w * cmath.exp(1j * x * phase) * g.fourier(x / prod)
        assert rr.series_term(m, g, x, n) == pytest.approx(brute, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        exact = rr.series_term(m, g, 3.14, 6)
        est, stderr = rr.series_term_mc(m, g, 3.14, 6, 200_000, seed=5)
        assert abs(est - exact) <= 4 * stderr + 1e-4

    @pytest.mark.parametrize("x, n, count", [
        (1.7, 1, 1), (-2.5, 7, 3000), (0.0, 8, 3000), (3.1, 30, 3000),
        (1.7, 200, 20_001),  # three chunks, the last of one row
    ])
    def test_monte_carlo_matches_single_draw_oracle_bytes(self, x, n, count):
        m = rr.build_measure([(2.0, 0.5, 0.5), (3.0, -1.0, 0.3), (-4.0, 1.5, 0.2)])
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        est, stderr = rr.series_term_mc(m, g, x, n, count, seed=8)
        oracle, oracle_stderr = _series_term_mc_single_draw(m, g, x, n, count, 8)
        assert np.array([est, stderr]).tobytes() == np.array([oracle, oracle_stderr]).tobytes()

    @pytest.mark.parametrize("n, count", [(0, 100), (-1, 100), (3, 0), (3, -2)])
    def test_monte_carlo_rejects_bad_depth_or_count(self, n, count):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        with pytest.raises(ValueError, match="depth|sample count"):
            rr.series_term_mc(m, g, 1.0, n, count)


class TestSumSeries:
    def test_telescopes_to_solution_transform(self, contractive_pair):
        measure, f, g = contractive_pair
        for x in (0.3, 1.0, 2.7):
            total, report = rr.sum_series(measure, g, x)
            assert report.converged
            expected = f.fourier(x) - g.fourier(x)
            assert total == pytest.approx(expected, abs=1e-12)

    def test_zero_frequency_sum_is_zero(self, contractive_pair):
        measure, _, g = contractive_pair
        total, _ = rr.sum_series(measure, g, 0.0)
        assert abs(total) <= 1e-13

    def test_single_atom_partial_sums_match_closed_form(self):
        m = rr.build_measure([(2, 1, 1.0)])
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        x = 1.0
        total, report = rr.sum_series(m, g, x)
        manual = sum(single_atom_term(2.0, 1.0, g.fourier, x, n)
                     for n in range(1, report.terms_used + 1))
        assert total == pytest.approx(manual, abs=1e-13)

    def test_critical_regime_refused(self):
        m = rr.build_measure([(-1, 0, 0.5), (1, 0, 0.5)])
        with pytest.raises(rr.CriticalRegime):
            rr.sum_series(m, rr.triangle(0, 1) - rr.triangle(1, 1), 1.0)

    def test_non_convergence_reported_not_raised(self, expansive_pair):
        measure, _, g = expansive_pair
        _, report = rr.sum_series_grid(measure, g, [50.0], n_max=4)
        assert not report.converged
        assert report.terms_used == 4

    def test_monte_carlo_grid_close_to_exact(self, expansive_pair):
        measure, _, g = expansive_pair
        xs = np.linspace(-6, 6, 13)
        exact, _ = rr.sum_series_grid(measure, g, xs, eps=1e-9, n_max=40)
        mc, _ = rr.sum_series_grid(
            measure, g, xs,
            strategy=rr.MonteCarloStrategy(sample_count=20_000, seed=11),
            eps=1e-9, n_max=25,
        )
        assert np.max(np.abs(exact - mc)) < 0.03

    @pytest.mark.parametrize("atoms, samples, n_max", [
        ([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)], 2_000, 60),
        # 2_000_000 // 400 = 5000 rows per chunk
        ([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)], 12_000, 400),
        ([(-2.0, 0.0, 0.5), (3.0, 1.0, 0.25), (2.0, -0.5, 0.25)], 3_000, 60),
    ], ids=["one-chunk", "three-chunks", "zero-shift-negative-scale"])
    def test_streamed_monte_carlo_matches_upfront_oracle(self, atoms, samples, n_max):
        measure = rr.build_measure(atoms)
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        xs = rr.symmetric_grid(8.0, 5)
        strategy = rr.MonteCarloStrategy(sample_count=samples, seed=5)
        values, report = rr.sum_series_grid(measure, g, xs, strategy, n_max=n_max)
        oracle, oracle_report = _series_grid_mc_upfront(
            measure, g, xs, 1e-10, n_max, samples, 5
        )
        assert report.converged and report.terms_used < n_max
        assert report == oracle_report
        assert values.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_sample_count_refused(self, count):
        with pytest.raises(ValueError, match="sample_count"):
            rr.MonteCarloStrategy(sample_count=count)

    def test_monte_carlo_evaluates_only_the_depths_it_sums(self):
        measure = rr.build_measure([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)])
        g = CountingFourier(rr.gaussian(0, 1) - rr.gaussian(1, 1))
        strategy = rr.MonteCarloStrategy(sample_count=500, seed=1)
        _, report = rr.sum_series_grid(measure, g, rr.symmetric_grid(8.0, 33), strategy)
        # one chunk and one frequency block: one transform call per depth
        assert report.converged
        assert g.calls == report.terms_used < 60


ROUTES = {
    "shared": ([(0.5, 1.0, 0.5), (0.5, -1.0, 0.5)], rr.EXACT),
    "walk": ([(0.5, 1.0, 0.5), (0.25, -1.0, 0.5)], rr.EXACT),
    "mc": ([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)],
           rr.MonteCarloStrategy(sample_count=2_000, seed=4)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
class TestHalfGrid:
    """The series is evaluated on |x| and mirrored by conjugation."""

    def _problem(self, route):
        atoms, strategy = ROUTES[route]
        return rr.build_measure(atoms), rr.gaussian(0, 1) - rr.gaussian(1.5, 1), strategy

    def test_symmetric_grid_mirrors_exactly(self, route):
        measure, g, strategy = self._problem(route)
        values, _ = rr.sum_series_grid(measure, g, rr.symmetric_grid(6.0, 41), strategy)
        assert np.array_equal(values[::-1], np.conj(values))

    @pytest.mark.parametrize("grid", [
        np.random.default_rng(3).permutation(rr.symmetric_grid(6.0, 25)),
        np.linspace(-6.0, 6.0, 24),
    ], ids=["shuffled", "even-linspace"])
    def test_matches_pointwise_sum(self, route, grid):
        # eps = 0 runs every route to n_max, so the grid and each point
        # sum the same depths
        measure, g, strategy = self._problem(route)
        values, report = rr.sum_series_grid(measure, g, grid, strategy, eps=0.0, n_max=14)
        assert report.terms_used == 14
        for x, v in zip(grid, values):
            point, _ = rr.sum_series(measure, g, x, strategy, eps=0.0, n_max=14)
            assert abs(v - point) <= 1e-13


class TestForwardCharfnProduct:
    def test_matches_uniform_charfn(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        xs = np.array([-7.0, -1.0, 0.5, 2.0, 19.0])
        vals = rr.forward_charfn_product(m, xs)
        oracle = (np.exp(1j * xs) - 1.0) / (1j * xs)
        assert np.allclose(vals, oracle, atol=1e-14)

    def test_against_monte_carlo(self):
        m = rr.build_measure([(3, 1, 0.5), (3, -1, 0.25), (3, 0, 0.25)])
        xs = np.array([0.7, 4.0])
        exact = rr.forward_charfn_product(m, xs)
        est = rr.estimate_charfn(m, xs, 200_000, rng_seed=8)
        assert np.all(np.abs(exact - est.charfn_values) <= 4 * est.charfn_stderr + 1e-3)

    def test_mixed_scales_refused(self):
        m = rr.build_measure([(2, 1, 0.5), (4, 1, 0.5)])
        with pytest.raises(rr.EnumerationTooLarge):
            rr.forward_charfn_product(m, [1.0])


class TestSolveSpectrum:
    def test_contractive_manufactured(self, contractive_pair):
        measure, f, g = contractive_pair
        xs = rr.symmetric_grid(40.0, 513)
        spec = rr.solve_spectrum(measure, g, 0.0, xs)
        assert spec.truncation.converged
        assert np.max(np.abs(spec.values - f.fourier(xs))) <= 1e-10

    def test_contractive_mass_zero_at_origin(self, contractive_pair):
        measure, _, g = contractive_pair
        spec = rr.solve_spectrum(measure, g, 0.0, rr.symmetric_grid(10.0, 33))
        assert abs(spec.value_at(0.0)) <= 1e-13

    def test_contractive_nonzero_mass_refused(self, contractive_pair):
        measure, _, g = contractive_pair
        with pytest.raises(rr.MassMustBeZero):
            rr.solve_spectrum(measure, g, 1.0, rr.symmetric_grid(10.0, 33))

    def test_nonzero_mean_forcing_refused(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        with pytest.raises(rr.NonzeroMeanInhomogeneity):
            rr.solve_spectrum(m, rr.indicator(0, 1), 0.0, rr.symmetric_grid(5.0, 17))

    def test_critical_refused(self):
        m = rr.build_measure([(-1, 0, 0.5), (1, 0, 0.5)])
        g = rr.triangle(1, 1) - rr.triangle(-1, 1)
        with pytest.raises(rr.CriticalRegime):
            rr.solve_spectrum(m, g, 0.0, rr.symmetric_grid(5.0, 17))

    def test_expansive_zero_shift_route(self):
        # one expanding atom with no shift: fhat = mass + series + ghat
        measure = rr.build_measure([(2, 0, 1.0)])
        f = rr.gaussian(0, 1)
        g = rr.manufacture_inhomogeneity(measure, f)
        xs = rr.symmetric_grid(30.0, 301)
        spec = rr.solve_spectrum(measure, g, f.mass(), xs)
        assert np.max(np.abs(spec.values - f.fourier(xs))) <= 1e-9

    def test_expansive_nondegenerate_route(self, expansive_pair):
        measure, f, g = expansive_pair
        xs = rr.symmetric_grid(30.0, 601)
        spec = rr.solve_spectrum(measure, g, 2.0, xs)
        assert np.max(np.abs(spec.values - f.fourier(xs))) <= 1e-10

    def test_expansive_value_at_zero_is_mass(self, expansive_pair):
        measure, _, g = expansive_pair
        spec = rr.solve_spectrum(measure, g, 2.0, rr.symmetric_grid(10.0, 65))
        assert spec.value_at(0.0) == pytest.approx(2.0, abs=1e-12)

    def test_shared_fixed_point_needs_override(self):
        # single atom (2, -1): every map fixes -1, the forward limit is the
        # constant -1, and the sufficient convergence condition fails
        measure = rr.build_measure([(2, -1, 1.0)])
        f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
        g = rr.manufacture_inhomogeneity(measure, f)
        xs = rr.symmetric_grid(20.0, 257)
        with pytest.raises(rr.RegimeMismatch):
            rr.solve_spectrum(measure, g, 0.0, xs)
        spec = rr.solve_spectrum(measure, g, 0.0, xs, allow_unverified=True)
        assert np.max(np.abs(spec.values - f.fourier(xs))) <= 1e-10

    def test_monte_carlo_strategy_close(self, expansive_pair):
        measure, f, g = expansive_pair
        xs = rr.symmetric_grid(8.0, 33)
        spec = rr.solve_spectrum(
            measure, g, 2.0, xs,
            strategy=rr.MonteCarloStrategy(sample_count=20_000, seed=3),
            n_max=25,
        )
        assert np.max(np.abs(spec.values - f.fourier(xs))) < 0.05

    def test_hermitian_symmetry(self, contractive_pair):
        measure, _, g = contractive_pair
        xs = rr.symmetric_grid(20.0, 129)
        spec = rr.solve_spectrum(measure, g, 0.0, xs)
        assert np.allclose(spec.values, np.conj(spec.values[::-1]), atol=1e-15)

    def test_unique_under_solver_settings(self, contractive_pair):
        # two independent runs with different truncation settings agree
        measure, _, g = contractive_pair
        xs = rr.symmetric_grid(25.0, 257)
        a = rr.solve_spectrum(measure, g, 0.0, xs, eps=1e-8, n_max=40)
        b = rr.solve_spectrum(measure, g, 0.0, xs, eps=1e-12, n_max=60)
        assert np.max(np.abs(a.values - b.values)) <= 1e-7


class TestInvertSpectrum:
    def test_gaussian_round_trip(self):
        f = rr.gaussian(0, 1)
        xs = np.linspace(-40, 40, 4096)
        spec = rr.Spectrum(xs, f.fourier(xs), f.mass(), rr.TruncationReport(0, 0, True))
        ts = np.linspace(-8, 8, 1601)
        rec = rr.invert_spectrum(spec, ts)
        assert np.max(np.abs(rec.values - f(ts))) <= 1e-6

    def test_zero_spectrum_gives_zero(self):
        xs = np.linspace(-10, 10, 101)
        spec = rr.Spectrum(xs, np.zeros(101, complex), 0.0,
                           rr.TruncationReport(0, 0, True))
        rec = rr.invert_spectrum(spec, np.linspace(-1, 1, 21))
        assert np.all(rec.values == 0.0)

    def test_step_pair_round_trip_with_override(self):
        # 1/x spectrum decay keeps the edge above the leakage gate at this
        # window; overriding reproduces the known Gibbs-limited accuracy
        f = rr.indicator(0, 1) - rr.indicator(1, 2)
        xs = np.linspace(-200, 200, 8192)
        spec = rr.Spectrum(xs, f.fourier(xs), 0.0, rr.TruncationReport(0, 0, True))
        ts = np.linspace(-2.0, 4.0, 6001)
        with pytest.raises(rr.SpectralLeakage):
            rr.invert_spectrum(spec, ts)
        rec = rr.invert_spectrum(spec, ts, check_leakage=False)
        l1 = np.trapezoid(np.abs(rec.values - f(ts)), ts)
        # frozen from a grid-converged run; scales like log(width)/width of
        # the frequency window (4 unit jumps)
        assert l1 == pytest.approx(0.0515, rel=0.05)

    def test_leakage_gate(self):
        f = rr.gaussian(0, 1)
        xs = np.linspace(-2, 2, 41)
        spec = rr.Spectrum(xs, f.fourier(xs), f.mass(), rr.TruncationReport(0, 0, True))
        with pytest.raises(rr.SpectralLeakage):
            rr.invert_spectrum(spec, np.linspace(-1, 1, 11))

    def test_asymmetric_grid_rejected(self):
        xs = np.linspace(0, 10, 11)
        spec = rr.Spectrum(xs, np.ones(11, complex), 0.0,
                           rr.TruncationReport(0, 0, True))
        with pytest.raises(ValueError):
            rr.invert_spectrum(spec, np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("f, xs, ts", [
        (rr.gaussian(0.5, 1.2) - 0.5 * rr.triangle(-1, 2),
         np.linspace(-30, 30, 2048), np.linspace(-6, 6, 1200)),
        # a small grid, the size of the exact mixed-scale solves
        (rr.gaussian(-0.5, 1.1) - rr.gaussian(1.0, 1.1),
         rr.symmetric_grid(5.6 * math.pi, 113), np.linspace(-8, 8, 1601)),
        # even-length frequency grid, odd-length output grid
        (rr.gaussian(0.5, 1.2) - 0.5 * rr.triangle(-1, 2),
         np.linspace(-30, 30, 1000), np.linspace(-5, 7, 1201)),
    ], ids=["2048x1200", "113x1601", "1000x1201"])
    def test_chirp_z_matches_direct(self, f, xs, ts):
        spec = rr.Spectrum(xs, f.fourier(xs), f.mass(), rr.TruncationReport(0, 0, True))
        dx = (xs[-1] - xs[0]) / (len(xs) - 1)
        weights = np.full(len(xs), dx)
        weights[0] = weights[-1] = 0.5 * dx
        direct = _inverse_direct(spec.values * weights / (2.0 * math.pi), xs, ts)
        fast = rr.invert_spectrum(spec, ts)
        assert np.max(np.abs(direct.real - fast.values)) <= 1e-9

    def test_chirp_z_accurate_at_scale(self):
        # spot-check a large grid against an extended-precision evaluation
        # of the same sum
        f = rr.indicator(0, 1) + rr.indicator(2, 3)
        xs = rr.symmetric_grid(2560.0, 32769)
        spec = rr.Spectrum(xs, f.fourier(xs), f.mass(), rr.TruncationReport(0, 0, True))
        ts = np.linspace(-2.0, 5.0, 28001)
        fast = rr.invert_spectrum(spec, ts)

        dx = np.longdouble(xs[1] - xs[0])
        weights = np.full(len(xs), dx, dtype=np.longdouble)
        weights[0] = weights[-1] = dx / 2
        vw = spec.values.astype(np.clongdouble) * weights / (2 * np.longdouble(np.pi))
        xl = xs.astype(np.longdouble)
        for idx in (0, 7011, 14000, 20003, 28000):
            ref = complex((np.exp(-1j * np.longdouble(ts[idx]) * xl) * vw).sum())
            assert abs(fast.values[idx] - ref) <= 1e-10


class TestResidualEquivalence:
    def test_time_and_fourier_residuals_vanish_together(self, contractive_pair):
        measure, f, g = contractive_pair
        xs = [0.3, 1.0, 2.7, 5.0]
        assert rr.residual_time(measure, f, g).sup_residual <= 1e-10
        assert rr.residual_fourier(measure, f, g, xs) <= 1e-8
        broken = f + rr.gaussian(5, 1)
        assert rr.residual_time(measure, broken, g).sup_residual > 1e-3
        assert rr.residual_fourier(measure, broken, g, xs) > 1e-3
