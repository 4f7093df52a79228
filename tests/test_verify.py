import numpy as np
import pytest

import randrefine as rr
from test_spectrum import CountingFourier, series_term


def _finite_depth_residual_oracle(measure, f, g, depth, x_probes):
    """Reference oracle: one exact ``series_term`` walk per probe and depth."""
    worst = 0.0
    for x in np.atleast_1d(np.asarray(x_probes, dtype=float)):
        rhs = series_term(measure, f, float(x), depth)
        for n in range(1, depth):
            rhs += series_term(measure, g, float(x), n)
        rhs += g.fourier(float(x))
        worst = max(worst, abs(f.fourier(float(x)) - rhs))
    return worst


def _residual_fourier_oracle(measure, f, g, x_probes):
    """Reference oracle: the depth-1 path average written out atom by atom."""
    xs = np.atleast_1d(np.asarray(x_probes, dtype=float))
    r = f.fourier(xs) - g.fourier(xs)
    for l, m, p in measure.atoms:
        r = r - p * np.exp(1j * xs * m / l) * f.fourier(xs / l)
    return float(np.max(np.abs(r)))


@pytest.fixture(scope="module")
def walk_pair():
    """Mixed-scale contractive measure: its terms come from the merged walk."""
    measure = rr.build_measure([(0.5, 1.0, 0.5), (0.25, -1.0, 0.25), (0.75, 0.5, 0.25)])
    f = rr.gaussian(0, 1) - rr.gaussian(2, 1)
    return measure, f, rr.manufacture_inhomogeneity(measure, f)


class TestResidualTime:
    def test_manufactured_pair_is_solution(self, contractive_pair):
        measure, f, g = contractive_pair
        report = rr.residual_time(measure, f, g)
        assert report.sup_residual <= 1e-12
        assert report.passes()

    def test_zero_candidate_accumulates_forcing(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        report = rr.residual_time(m, rr.zero_fn(), g)
        assert report.l1_residual == pytest.approx(2.0, rel=1e-3)
        assert not report.passes()

    def test_grid_candidate_budget(self, contractive_pair):
        measure, f, g = contractive_pair
        cand = rr.GridFn.from_function(f, -12.0, 12.0, 1e-3)
        report = rr.residual_time(measure, cand, g)
        assert report.sup_residual <= report.tolerance_budget

    def test_callable_candidate(self, contractive_pair):
        measure, f, g = contractive_pair
        report = rr.residual_time(measure, lambda t: f(t), g)
        assert report.sup_residual <= 1e-12

    def test_verdict_dict_shape(self, contractive_pair):
        measure, f, g = contractive_pair
        d = rr.residual_time(measure, f, g).to_dict()
        assert set(d) == {"residual_l1", "residual_sup", "tolerance_budget", "pass"}


class TestResidualFourier:
    def test_manufactured_pair(self, contractive_pair):
        measure, f, g = contractive_pair
        assert rr.finite_depth_residual(measure, f, g, 1, [0.3, 1.0, 2.7]) <= 1e-12

    def test_origin_probe_always_zero(self, contractive_pair):
        measure, f, g = contractive_pair
        assert rr.finite_depth_residual(measure, f, g, 1, [0.0]) <= 1e-15

    def test_expansive_manufactured_pair(self, expansive_pair):
        measure, f, g = expansive_pair
        assert rr.finite_depth_residual(measure, f, g, 1, np.linspace(-5, 5, 41)) <= 1e-12


    @pytest.mark.parametrize("pair", ["contractive_pair", "expansive_pair", "walk_pair"])
    def test_matches_atomwise_oracle(self, request, pair):
        measure, f, g = request.getfixturevalue(pair)
        xs = [-2.9, -0.37, 0.0, 0.3, 1.0, 2.7, 7.5]
        for cand in (f, f + rr.gaussian(1, 0.5)):
            assert rr.finite_depth_residual(measure, cand, g, 1, xs) == pytest.approx(
                _residual_fourier_oracle(measure, cand, g, xs), abs=1e-14
            )


class TestFiniteDepthResidual:
    def test_depth_one_equals_transform_residual(self, contractive_pair):
        measure, f, g = contractive_pair
        xs = [0.3, 1.0, 2.7]
        a = rr.finite_depth_residual(measure, f, g, 1, xs)
        b = _residual_fourier_oracle(measure, f, g, xs)
        assert a == pytest.approx(b, abs=1e-14)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_manufactured_pairs_exact(self, depth, contractive_pair, expansive_pair):
        for measure, f, g in (contractive_pair, expansive_pair):
            res = rr.finite_depth_residual(measure, f, g, depth, [0.3, 1.0, 2.7])
            assert res <= 1e-10

    @pytest.mark.parametrize("pair", ["contractive_pair", "expansive_pair", "walk_pair"])
    @pytest.mark.parametrize("depth", [1, 2, 4, 6])
    def test_matches_per_probe_oracle(self, request, pair, depth):
        measure, f, g = request.getfixturevalue(pair)
        xs = [-2.9, -0.37, 0.0, 0.3, 1.0, 2.7, 7.5]
        for cand in (f, f + rr.gaussian(1, 0.5)):
            res = rr.finite_depth_residual(measure, cand, g, depth, xs)
            assert res == pytest.approx(
                _finite_depth_residual_oracle(measure, cand, g, depth, xs), abs=1e-14
            )

    @pytest.mark.parametrize("depth", [1, 5])
    def test_one_walk_serves_every_probe(self, walk_pair, depth):
        measure, f, g = walk_pair
        f_count, g_count = CountingFourier(f), CountingFourier(g)
        rr.finite_depth_residual(measure, f_count, g_count, depth, np.linspace(-3, 3, 13))
        assert g_count.calls == depth
        assert f_count.calls == 2

    def test_depth_below_one_refused(self, walk_pair):
        with pytest.raises(ValueError, match="depth"):
            rr.finite_depth_residual(*walk_pair, 0, [1.0])

    def test_perturbed_candidate_violates(self, expansive_pair):
        measure, f, g = expansive_pair
        bad = f + rr.gaussian(5, 1)
        res = rr.finite_depth_residual(measure, bad, g, 3, [0.3, 1.0, 2.7])
        assert res > 1e-3


class TestExampleFamilies:
    def test_reflection_family_solves(self):
        g = rr.triangle(1, 1) - rr.triangle(-1, 1)            # odd
        h = rr.gaussian(0, 1) + 0.5 * rr.gaussian(2, 1) + 0.5 * rr.gaussian(-2, 1)
        measure, f = rr.example_family("example1", g, h)
        assert measure.atoms == ((-1.0, 0.0, 0.5), (1.0, 0.0, 0.5))
        assert rr.classify_regime(measure).regime is rr.Regime.CRITICAL
        assert rr.residual_time(measure, f, g).sup_residual <= 1e-12

    def test_shifted_reflection_family_solves(self):
        g = rr.indicator(1, 2) - rr.indicator(0, 1)   # point-antisymmetric about (1, 0)
        h = rr.triangle(1, 1)                          # mirror-symmetric about x = 1
        measure, f = rr.example_family("example2", g, h)
        assert measure.atoms == ((-1.0, -2.0, 0.5), (1.0, 0.0, 0.5))
        assert rr.residual_time(measure, f, g).sup_residual <= 1e-12

    def test_wrong_g_symmetry_rejected(self):
        not_odd = rr.gaussian(0, 1)
        with pytest.raises(rr.SymmetryViolated):
            rr.example_family("example1", not_odd, rr.gaussian(0, 1))

    def test_wrong_h_symmetry_rejected(self):
        g = rr.triangle(1, 1) - rr.triangle(-1, 1)
        with pytest.raises(rr.SymmetryViolated):
            rr.example_family("example1", g, rr.gaussian(2, 1))

    def test_generic_symmetrization_passes(self):
        rng = np.random.default_rng(5)
        for which, center in (("example1", 0.0), ("example2", 1.0)):
            raw_g = float(rng.uniform(0.5, 2)) * rr.gaussian(center + 1.5, 0.7)
            raw_h = float(rng.uniform(0.5, 2)) * rr.triangle(center + 0.8, 1.2)
            g = raw_g - rr.mirror_about(raw_g, center)
            h = raw_h + rr.mirror_about(raw_h, center)
            measure, f = rr.example_family(which, g, h)
            assert rr.residual_time(measure, f, g).sup_residual <= 1e-12

    def test_non_uniqueness_two_solutions(self):
        g = rr.triangle(1, 1) - rr.triangle(-1, 1)
        h1 = rr.gaussian(0, 1)
        h2 = rr.gaussian(0, 1) + 0.8 * rr.triangle(0, 2)
        measure, f1 = rr.example_family("example1", g, h1)
        _, f2 = rr.example_family("example1", g, h2)
        ts = np.linspace(-3, 3, 601)
        assert np.max(np.abs(f1(ts) - f2(ts))) > 0.1
        assert rr.residual_time(measure, f1, g).sup_residual <= 1e-12
        assert rr.residual_time(measure, f2, g).sup_residual <= 1e-12


class TestSolverVerifierConsistency:
    def test_solved_spectrum_passes_verifier(self, contractive_pair):
        measure, f, g = contractive_pair
        xs = rr.symmetric_grid(40.0, 2049)
        spec = rr.solve_spectrum(measure, g, 0.0, xs)
        recovered = rr.invert_spectrum(spec, np.linspace(-10, 10, 8001))
        report = rr.residual_time(measure, recovered, g)
        assert report.sup_residual <= report.tolerance_budget
