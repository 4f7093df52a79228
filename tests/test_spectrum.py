import cmath
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import randrefine as rr
from randrefine.perpetuity import CHUNK_ELEMS, generator, state_walk
from randrefine.spectrum import _PLAN_CACHE_BYTES, _lex_ranks, _terms_mc, exact_terms


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


def series_term(measure, h, x, n):
    """The exact depth-n path average T_n[h](x), read off :func:`exact_terms`."""
    terms = exact_terms(measure, np.array([float(x)]))
    return complex(next(itertools.islice(terms, n - 1, None))(h)[0])


def _series_term_mc_single_draw(measure, h, x, n, sample_count, seed):
    """Reference oracle: T_n[h](x) and its standard error from one
    unchunked index draw."""
    rng = generator(seed)
    ls, ms = measure.scales, measure.shifts
    idx = rng.choice(len(ls), size=(sample_count, n), p=measure.weights)
    prods = np.cumprod(ls[idx], axis=1)
    sums = (ms[idx] / prods).sum(axis=1)
    vals = np.exp(1j * x * sums) * h.fourier(x / prods[:, -1])
    est = complex(vals.mean())
    stderr = math.sqrt((vals.real.var() + vals.imag.var()) / sample_count)
    return est, stderr


def _walk_terms_oracle(measure, h, xs, depth):
    """Reference oracle: T_1[h] .. T_depth[h] on ``xs`` read off the merged
    ``(P, S)`` state walk, one column of phases per path state (the former
    mixed-scale route), with the absolute path sums
    ``A_n = sum_paths w |hhat(xs / P)| >= |T_n[h]|`` of the same walk."""
    terms, abs_sums = [], []
    for _, (prods, sums, weights) in zip(range(depth), state_walk(measure)):
        out = np.zeros(len(xs), dtype=complex)
        bound = np.zeros(len(xs))
        block = max(1, 4_000_000 // max(len(xs), 1))
        for start in range(0, len(prods), block):
            p = prods[start:start + block]
            s = sums[start:start + block]
            w = weights[start:start + block]
            phases = np.exp(1j * np.multiply.outer(xs, s))
            hh = h.fourier(np.multiply.outer(xs, 1.0 / p))
            out += (phases * hh) @ w
            bound += np.abs(hh) @ w
        terms.append(out)
        abs_sums.append(bound)
    return terms, abs_sums


def _shared_products_oracle(measure, xs):
    """Reference oracle: ``(l0**n, prod_{k<=n} E exp(i xs M / l0**k))`` for
    n = 1, 2, ... when every scale is ``l0`` (the former shared-scale route)."""
    l0 = float(measure.scales[0])
    pw = 1.0
    phase = np.ones(len(xs), dtype=complex)
    while True:
        pw *= l0
        factor = np.zeros(len(xs), dtype=complex)
        for _, m, p in measure.atoms:
            factor += p * np.exp(1j * m * (xs / pw))
        phase = phase.copy()
        phase *= factor
        yield pw, phase


def _shared_exact_terms_oracle(measure, xs):
    for pw, phase in _shared_products_oracle(measure, xs):
        yield lambda h, pw=pw, phase=phase: phase * h.fourier(xs / pw)


def _forward_charfn_product_oracle(measure, xs, tol=1e-15, max_factors=2000):
    """Reference oracle: the former single-scale forward-limit product."""
    l0 = float(measure.scales[0])
    out = np.ones(len(xs), dtype=complex)
    mmax = float(np.max(np.abs(measure.shifts)))
    if mmax == 0.0:
        return out
    xmax = float(np.max(np.abs(xs)))
    for _, (pw, out) in zip(range(max_factors), _shared_products_oracle(measure, xs)):
        if xmax * mmax / (abs(pw) * (abs(l0) - 1.0)) < tol:
            break
    return out


def _lattice_rowwise_oracle(measure, xs):
    """Reference oracle: the scale-exponent lattice grouped by a row-wise
    ``np.unique(axis=0)`` of the exponent vectors (the former grouping)."""
    scales = np.unique(measure.scales)
    shifts = [[(m, p) for l, m, p in measure.atoms if l == s] for s in scales]
    d = len(scales)
    keys, prods, phis = np.zeros((1, d), int), np.ones(1), np.ones((1, len(xs)), complex)
    while True:
        steps = (keys[None] + np.eye(d, dtype=int)[:, None]).reshape(-1, d)
        keys, first, target = np.unique(steps, axis=0, return_index=True, return_inverse=True)
        prods = np.multiply.outer(scales, prods).ravel()[first]
        u = xs / prods[:, None]
        new = np.empty((len(keys), len(xs)), dtype=complex)
        for k, t in enumerate(target.reshape(d, -1)):
            factor = np.zeros((len(t), len(xs)), dtype=complex)
            for m, p in shifts[k]:
                factor += p * np.exp(1j * m * u[t])
            phase = phis.copy()
            phase *= factor
            fresh = first[t] == k * len(t) + np.arange(len(t))
            new[t[fresh]] = phase[fresh]
            new[t[~fresh]] += phase[~fresh]
        phis = new
        yield prods, phis


def _exact_terms_loop_oracle(measure, xs):
    """Reference oracle: T_n[h] from the row-wise lattice, one ``hhat`` row
    per group and the groups added one by one (the former loop)."""
    for prods, phis in _lattice_rowwise_oracle(measure, xs):
        def term(h, prods=prods, phis=phis):
            hh = h.fourier(xs / prods[:, None])
            out = phis[0] * hh[0]
            for phi, hk in zip(phis[1:], hh[1:]):
                out += phi * hk
            return out
        yield term


def _terms_mc_per_path_oracle(measure, h, xs, n_max, sample_count, seed):
    """Reference oracle: the Monte Carlo direct route with one phase column
    per path (the former direct route), chunked and blocked as ``_terms_mc``."""
    ls, ms = measure.scales, measure.shifts
    chunks = [(np.ascontiguousarray(idx.T), np.ones(len(idx)), np.zeros(len(idx)))
              for _, idx in rr.perpetuity.path_chunks(measure, n_max, sample_count,
                                                      generator(seed))]
    for n in range(n_max):
        term = np.zeros(len(xs), dtype=complex)
        for idx, p, s in chunks:
            p *= ls[idx[n]]
            s += ms[idx[n]] / p
            xblock = max(1, rr.spectrum.CHUNK_ELEMS // len(p))
            u, inv = np.unique(p, return_inverse=True)
            for start in range(0, len(xs), xblock):
                xb = xs[start:start + xblock]
                phases = np.exp(1j * np.multiply.outer(xb, s))
                hh = h.fourier(np.multiply.outer(xb, 1.0 / u))[:, inv]
                term[start:start + len(xb)] += (phases * hh).sum(axis=1)
        yield term / sample_count


class CountingFourier:
    """Forwards ``fourier`` to a closed form, counts the calls and records
    each argument's shape; every other attribute (the moments the Monte
    Carlo moment route reads) comes from the closed form uncounted."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.shapes = []

    def fourier(self, x):
        self.calls += 1
        self.shapes.append(np.shape(x))
        return self.fn.fourier(x)

    def __getattr__(self, name):
        return getattr(self.fn, name)


def _moment_route_depths(measure, g, xs, n_max, samples, seed):
    """Per depth of one chunk of paths, whether ``_terms_mc`` takes the
    moment route: ``max|x| <= y0 min|P_n|`` over the half grid of ``xs``."""
    half = np.unique(np.abs(xs))
    assert rr.spectrum._moment_plan(g, half) is not None
    prods = np.cumprod(measure.scales[_draw(measure, n_max, samples, seed)], axis=1)
    y0 = rr.spectrum._MOMENT_Y0
    return [bool(half[-1] <= y0 * np.min(np.abs(prods[:, n]))) for n in range(n_max)]


def _moment_route_tolerance(g, depths):
    """The most the moment route may move a sum of ``depths`` Monte Carlo
    terms: per depth its certified Taylor remainder, at most 1e-16 ||g||_1,
    plus rounding of 256 ulps of the Taylor terms' bound
    ``sum_k M_k y0^k / k!`` (a phase at most 15 complex multiplies from an
    exact exp, at most 40 powers, and the sums over paths)."""
    k = np.arange(41)
    fact = np.array([math.factorial(v) for v in k], dtype=float)
    taylor = g.abs_moment_bounds(len(k), g.centre()) * rr.spectrum._MOMENT_Y0 ** k / fact
    return depths * (1e-16 * g.l1_upper_bound() + 256 * np.finfo(float).eps * taylor.sum())


def single_atom_term(l, m, ghat, x, n):
    """Hand-expanded path average for a one-atom measure:
    exp(i x sum_{k<=n} m/l^k) * ghat(x / l^n)."""
    phase = sum(m / l ** k for k in range(1, n + 1))
    return cmath.exp(1j * x * phase) * ghat(x / l ** n)


def _draw(measure, n_max, samples, seed):
    """The atom indices ``path_chunks`` draws when they fit one chunk."""
    assert samples * n_max <= CHUNK_ELEMS
    return generator(seed).choice(len(measure), size=(samples, n_max), p=measure.weights)


# Products collide across atoms: 2 * 2 = 4 and 4 * 0.5 = 2.
COLLIDING = [(2.0, 0.5, 0.3), (4.0, -1.0, 0.5), (0.5, 1.5, 0.2)]
# Scales with odd parts 3 and 5: equal exponent counts drawn in different
# orders round apart once a product needs more than 53 bits.
ROUND_APART = [(3.0, 0.5, 0.5), (5.0, -1.0, 0.3), (0.5, 1.5, 0.2)]


class TestSeriesTerm:
    def test_single_atom_closed_form(self):
        m = rr.build_measure([(2, 1, 1.0)])
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        for n in (1, 2, 5, 9):
            for x in (0.3, 1.0, 2.7, -4.0):
                expected = single_atom_term(2.0, 1.0, g.fourier, x, n)
                assert series_term(m, g, x, n) == pytest.approx(expected, abs=1e-13)

    def test_zero_frequency_vanishes_for_admissible_g(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        assert abs(series_term(m, g, 0.0, 3)) <= 1e-14

    def test_two_paths_hand_expansion(self):
        # depth 1, two atoms: 0.5*ghat(x/2) + 0.5*exp(ix/2)*ghat(x/2)
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        x = math.pi
        expected = 0.5 * g.fourier(x / 2) + 0.5 * cmath.exp(1j * x / 2) * g.fourier(x / 2)
        assert series_term(m, g, x, 1) == pytest.approx(expected, abs=1e-14)

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
        assert series_term(m, g, x, n) == pytest.approx(brute, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        exact = series_term(m, g, 3.14, 6)
        *_, est = _terms_mc(m, g, np.array([3.14]), 6, 200_000, 5)
        _, stderr = _series_term_mc_single_draw(m, g, 3.14, 6, 200_000, 5)
        assert abs(est[0] - exact) <= 4 * stderr + 1e-4

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_frequency_refused(self, x):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        with pytest.raises(ValueError, match="x_grid must be finite"):
            rr.sum_series_grid(m, g, [x], n_max=2)
        with pytest.raises(ValueError, match="x_grid must be finite"):
            rr.sum_series_grid(m, g, [x], rr.MonteCarloStrategy(100), n_max=2)


class TestSumSeries:
    def test_telescopes_to_solution_transform(self, contractive_pair):
        measure, f, g = contractive_pair
        for x in (0.3, 1.0, 2.7):
            values, report = rr.sum_series_grid(measure, g, [x])
            total = values[0]
            assert report.converged
            expected = f.fourier(x) - g.fourier(x)
            assert total == pytest.approx(expected, abs=1e-12)

    def test_zero_frequency_sum_is_zero(self, contractive_pair):
        measure, _, g = contractive_pair
        total = rr.sum_series_grid(measure, g, [0.0])[0][0]
        assert abs(total) <= 1e-13

    def test_single_atom_partial_sums_match_closed_form(self):
        m = rr.build_measure([(2, 1, 1.0)])
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        x = 1.0
        values, report = rr.sum_series_grid(m, g, [x])
        total = values[0]
        manual = sum(single_atom_term(2.0, 1.0, g.fourier, x, n)
                     for n in range(1, report.terms_used + 1))
        assert total == pytest.approx(manual, abs=1e-13)

    def test_critical_regime_refused(self):
        m = rr.build_measure([(-1, 0, 0.5), (1, 0, 0.5)])
        with pytest.raises(rr.CriticalRegime):
            rr.sum_series_grid(m, rr.triangle(0, 1) - rr.triangle(1, 1), [1.0])

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

    STREAMED = pytest.mark.parametrize("atoms, samples, n_max", [
        ([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)], 2_000, 60),
        # 2_000_000 // 400 = 5000 rows per chunk
        ([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)], 12_000, 400),
        ([(-2.0, 0.0, 0.5), (3.0, 1.0, 0.25), (2.0, -0.5, 0.25)], 3_000, 60),
        ([(2.0, 0.5, 0.5), (2.0, -1.0, 0.5)], 2_000, 60),
        (COLLIDING, 2_000, 80),
        (ROUND_APART, 2_000, 60),
    ], ids=["one-chunk", "three-chunks", "zero-shift-negative-scale",
            "single-scale", "colliding-products", "round-apart-products"])

    @STREAMED
    def test_streamed_monte_carlo_matches_upfront_oracle(self, atoms, samples, n_max):
        measure = rr.build_measure(atoms)
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        xs = rr.symmetric_grid(8.0, 5)
        strategy = rr.MonteCarloStrategy(sample_count=samples, seed=5)
        values, report = rr.sum_series_grid(measure, g, xs, strategy, n_max=n_max)
        oracle, oracle_report = _series_grid_mc_upfront(
            measure, g, xs, 1e-10, n_max, samples, 5
        )
        # the deep depths take the moment route: equal up to its certified
        # remainder and rounding, the last term's maximum included
        tol = _moment_route_tolerance(g, report.terms_used)
        assert report.converged and report.terms_used < n_max
        assert (report.terms_used, report.converged) == (oracle_report.terms_used,
                                                         oracle_report.converged)
        assert abs(report.last_term_max_abs - oracle_report.last_term_max_abs) <= tol
        assert np.max(np.abs(values - oracle)) <= tol

    @STREAMED
    def test_streamed_monte_carlo_without_moment_route_matches_oracle_bytes(
            self, atoms, samples, n_max, monkeypatch):
        monkeypatch.setattr(rr.spectrum, "_MOMENT_Y0", 0.0)
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

    @pytest.mark.parametrize("kwargs, message", [
        ({"x_grid": [0.5, math.nan]}, "x_grid must be finite"),
        ({"x_grid": [math.inf]}, "x_grid must be finite"),
        ({"x_grid": [-math.inf, 1.0]}, "x_grid must be finite"),
        ({"n_max": 0}, "n_max must be >= 1"),
        ({"n_max": -2}, "n_max must be >= 1"),
        ({"eps": math.nan}, "eps must be finite and >= 0"),
        ({"eps": math.inf}, "eps must be finite and >= 0"),
        ({"eps": -1.0}, "eps must be finite and >= 0"),
    ], ids=["nan-x", "inf-x", "minus-inf-x", "zero-n-max", "negative-n-max",
            "nan-eps", "inf-eps", "negative-eps"])
    def test_bad_series_inputs_refused(self, kwargs, message):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        args = {"x_grid": [0.5, 1.0], "eps": 1e-10, "n_max": 5} | kwargs
        with pytest.raises(ValueError, match=message):
            rr.sum_series_grid(m, g, **args)

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_sample_count_refused(self, count):
        with pytest.raises(ValueError, match="sample_count"):
            rr.MonteCarloStrategy(sample_count=count)

    @pytest.mark.parametrize("kwargs, field", [
        ({"sample_count": 10.5}, "sample_count"),
        ({"sample_count": 10.0}, "sample_count"),
        ({"sample_count": True}, "sample_count"),
        ({"sample_count": "10"}, "sample_count"),
        ({"sample_count": None}, "sample_count"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": np.int64(-2)}, "seed"),
        ({"seed": False}, "seed"),
    ], ids=["fractional-count", "float-count", "bool-count", "str-count", "none-count",
            "fractional-seed", "negative-seed", "negative-numpy-seed", "bool-seed"])
    def test_strategy_fields_checked_when_built(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            rr.MonteCarloStrategy(**kwargs)

    def test_strategy_accepts_numpy_integers(self):
        strategy = rr.MonteCarloStrategy(sample_count=np.int32(7), seed=np.uint64(3))
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        values, _ = rr.sum_series_grid(m, g, [0.5, 1.0], strategy, n_max=5)
        plain, _ = rr.sum_series_grid(m, g, [0.5, 1.0], rr.MonteCarloStrategy(7, 3), n_max=5)
        assert values.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("atoms, n_max", [
        ([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)], 60),
        ([(2.0, 0.5, 0.5), (2.0, -1.0, 0.5)], 60),
        (COLLIDING, 80),
        (ROUND_APART, 60),
    ], ids=["mc-mixed", "single-scale", "colliding-products", "round-apart-products"])
    def test_monte_carlo_evaluates_hhat_once_per_distinct_product(self, atoms, n_max):
        measure = rr.build_measure(atoms)
        g = CountingFourier(rr.gaussian(0, 1) - rr.gaussian(1, 1))
        strategy = rr.MonteCarloStrategy(sample_count=500, seed=2)
        xs = rr.symmetric_grid(8.0, 33)
        _, report = rr.sum_series_grid(measure, g, xs, strategy, eps=0.0, n_max=n_max)
        assert report.terms_used == n_max
        # one chunk and one frequency block: one call per direct-route
        # depth, on the 17 distinct |x| times the distinct products P_n of
        # the drawn paths, and none on a moment-route depth
        drawn = measure.scales[_draw(measure, n_max, 500, 2)]
        prods = np.cumprod(drawn, axis=1)
        distinct = [len(np.unique(prods[:, n])) for n in range(n_max)]
        moment = _moment_route_depths(measure, g, xs, n_max, 500, 2)
        assert g.shapes == [(17, k) for k, m in zip(distinct, moment) if not m]
        calls = [g.calls]
        for _ in rr.spectrum._terms_mc(measure, g, np.unique(np.abs(xs)), n_max, 500, 2):
            calls.append(g.calls)
        assert [b - a for a, b in zip(calls, calls[1:])] == [int(not m) for m in moment]
        assert distinct[0] <= len(np.unique(measure.scales))
        assert max(distinct) < 500
        # power-of-two factors multiply exactly, so only scales with odd
        # parts 3 and 5 split one exponent count into several products
        counts = np.cumsum(drawn[..., None] == np.unique(measure.scales), axis=1)
        groups = [len(np.unique(counts[:, n], axis=0)) for n in range(n_max)]
        split = any(d > c for d, c in zip(distinct, groups))
        assert split == (atoms == ROUND_APART)

    def test_monte_carlo_evaluates_only_the_depths_it_sums(self):
        measure = rr.build_measure([(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)])
        g = CountingFourier(rr.gaussian(0, 1) - rr.gaussian(1, 1))
        strategy = rr.MonteCarloStrategy(sample_count=500, seed=1)
        xs = rr.symmetric_grid(8.0, 33)
        _, report = rr.sum_series_grid(measure, g, xs, strategy)
        # one chunk and one frequency block: one transform call per
        # direct-route depth summed, none on a moment-route depth
        assert report.converged
        moment = _moment_route_depths(measure, g, xs, 60, 500, 1)[:report.terms_used]
        assert 0 < g.calls == moment.count(False) < report.terms_used < 60


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
            point = rr.sum_series_grid(measure, g, [x], strategy, eps=0.0, n_max=14)[0][0]
            assert abs(v - point) <= 1e-13


def assert_lattice_matches_walk(measure, xs, depth):
    h = rr.gaussian(0, 1) - rr.gaussian(2, 1)
    oracle, abs_sums = _walk_terms_oracle(measure, h, xs, depth)
    # relative to the largest absolute path sum of the depths compared: a
    # term may be a small remainder of cancelling paths, or exactly 0 by
    # symmetry while its summands are O(1); subnormals carry no precision
    scale = max(float(np.max(abs_sums)), np.finfo(float).tiny)
    for n, (term, expected) in enumerate(zip(rr.spectrum.exact_terms(measure, xs), oracle), 1):
        assert np.max(np.abs(term(h) - expected)) <= 1e-14 * scale, n


SINGLE_SCALE = {
    "contractive-one-atom": [(0.5, 1.0, 1.0)],
    "contractive-two-atoms": [(0.5, 1.0, 0.5), (0.5, -1.0, 0.5)],
    "expansive": [(2.0, 0.5, 0.5), (2.0, -1.0, 0.5)],
    "negative-scale": [(-3.0, 1.0, 0.3), (-3.0, 0.0, 0.4), (-3.0, 2.0, 0.3)],
}


class TestScaleLattice:
    """The scale-exponent lattice is the one exact source of T_n."""

    @pytest.mark.parametrize("atoms", [
        [(0.5, 1.0, 0.5), (0.25, -1.0, 0.25), (0.75, 0.5, 0.25)],
        # the exact-mixed benchmark's shape: scales 0.5 and 0.75 share a fixed point
        [(0.5, -0.75, 0.5), (0.25, 1.125, 0.25), (0.75, -0.375, 0.25)],
        [(2.0, 1.0, 0.4), (0.5, -1.0, 0.6)],
        [(-0.5, 1.0, 0.3), (0.7, 0.2, 0.4), (0.5, -1.0, 0.3)],
    ], ids=["probe", "exact-mixed", "two-scale", "negative-scale"])
    def test_matches_walk_oracle(self, atoms):
        assert_lattice_matches_walk(rr.build_measure(atoms), np.linspace(-9.0, 9.0, 37), 9)

    @pytest.mark.parametrize("name", sorted(SINGLE_SCALE))
    def test_single_scale_series_matches_shared_product_bytes(self, name, monkeypatch):
        measure = rr.build_measure(SINGLE_SCALE[name])
        g = rr.manufacture_inhomogeneity(measure, rr.gaussian(0, 1) - rr.gaussian(2, 1))
        xs = rr.symmetric_grid(40.0, 4097)
        for eps in (0.0, 1e-10):
            values, report = rr.sum_series_grid(measure, g, xs, eps=eps)
            with monkeypatch.context() as patch:
                patch.setattr(rr.spectrum, "exact_terms", _shared_exact_terms_oracle)
                oracle, oracle_report = rr.sum_series_grid(measure, g, xs, eps=eps)
            assert report == oracle_report
            assert values.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("atoms", [
        [(2.0, 0.0, 0.5), (2.0, 1.0, 0.5)],
        [(3.0, 1.0, 0.5), (3.0, -1.0, 0.25), (3.0, 0.0, 0.25)],
        [(-3.0, 1.0, 0.3), (-3.0, 0.0, 0.4), (-3.0, 2.0, 0.3)],
        [(2.0, 0.0, 1.0)],
    ])
    def test_forward_charfn_product_matches_shared_product_bytes(self, atoms):
        measure = rr.build_measure(atoms)
        for xs in (rr.symmetric_grid(40.0, 4097), np.array([1.3])):
            assert (rr.forward_charfn_product(measure, xs).tobytes()
                    == _forward_charfn_product_oracle(measure, xs).tobytes())

    def test_refused_at_predicted_depth(self, monkeypatch):
        monkeypatch.setattr(rr.spectrum, "ENUMERATION_CAP", 100)
        measure = rr.build_measure([(0.5, 1.0, 0.5), (0.25, -1.0, 0.25), (0.75, 0.5, 0.25)])
        g = rr.gaussian(0, 1) - rr.gaussian(2, 1)
        xs = np.linspace(0.5, 2.5, 5)
        # C(n + 2, 2) groups x 5 frequencies first exceed 100 at depth 5
        lattice = rr.spectrum._lattice(measure, xs)
        for n in range(1, 5):
            prods, phis = next(lattice)
            assert len(prods) == len(phis) == math.comb(n + 2, 2)
        refusal = r"21 scale groups x 5 frequencies at depth 5 .*x_points.*eps.*--strategy mc"
        with pytest.raises(rr.EnumerationTooLarge, match=refusal):
            next(lattice)
        with pytest.raises(rr.EnumerationTooLarge, match=refusal):
            rr.sum_series_grid(measure, g, rr.symmetric_grid(2.5, 9), eps=0.0)

    def test_probe_measure_solves(self):
        measure = rr.build_measure([(0.5, 1.0, 0.5), (0.25, -1.0, 0.25), (0.75, 0.5, 0.25)])
        f = rr.gaussian(0, 1) - rr.gaussian(2, 1)
        g = rr.manufacture_inhomogeneity(measure, f)
        xs = rr.symmetric_grid(40.0, 1025)
        spec = rr.solve_spectrum(measure, g, 0.0, xs)
        assert spec.truncation.converged
        assert np.max(np.abs(spec.values - f.fourier(xs))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-2.0, -0.5, 0.25, 0.5, 0.75, 2.0, 3.0]),
            st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.5]),
                      st.floats(min_value=-2.0, max_value=2.0)),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=2, max_size=4,
    ),
    st.integers(min_value=1, max_value=8),
)
# h is odd about t = 1, so with these scales every term is exactly 0 and the
# lattice and the walk differ by rounding only (3.5e-18 at depth 2)
@example(atoms=[(-0.5, -1.0, 2), (0.5, -1.0, 2)], depth=2)
def test_lattice_matches_walk_oracle_generated(atoms, depth):
    assume(len({l for l, _, _ in atoms}) >= 2)
    total = sum(w for _, _, w in atoms)
    measure = rr.build_measure([(l, m, w / total) for l, m, w in atoms])
    assert_lattice_matches_walk(measure, np.array([-4.1, 0.0, 0.6, 1.9, 6.3]), depth)


# Scales that are powers of one another: products recur across depths and
# collide across groups; 2 and 4 are expansive, -0.5 flips signs.
POWER_SCALES = [0.5, 0.25, 0.125, 0.75, 2.0, 4.0, -0.5]


@settings(max_examples=40, deadline=None)
@given(
    # one scale per atom: a repeated scale is shared by several atoms
    scales=st.lists(st.sampled_from(POWER_SCALES), min_size=1, max_size=4),
    shifts=st.lists(st.one_of(st.just(0.0), st.sampled_from([-1.0, 0.5, 1.5]),
                              st.floats(-2.0, 2.0)), min_size=4, max_size=4),
    weights=st.lists(st.integers(1, 4), min_size=4, max_size=4),
    points=st.sampled_from([1, 2, 41]),
    x_max=st.floats(0.1, 10.0),
    calls=st.lists(st.sampled_from(["g", "gf", "fg", "f"]), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
# zero shifts under scales of both signs
@example(scales=[-0.5, 0.5, 2.0, -0.5], shifts=[0.0] * 4, weights=[1, 2, 3, 4], points=1,
         x_max=3.0, calls=["g"] * 6, seed=0)
@example(scales=[0.5, 0.25, 0.25, 0.75], shifts=[0.0, 1.5, 0.0, -1.0], weights=[1] * 4,
         points=41, x_max=9.0, calls=["g", "gf", "g", "fg", "f", "g"], seed=1)
def test_once_per_distinct_argument_matches_oracle_bytes(scales, shifts, weights, points, x_max,
                                                         calls, seed):
    atoms = list(zip(scales, shifts, weights))
    total = sum(w for _, _, w in atoms)
    measure = rr.build_measure([(l, m, w / total) for l, m, w in atoms])
    xs = np.linspace(0.0, x_max, points) if points > 1 else np.array([x_max])
    g = rr.gaussian(0, 1) - rr.gaussian(1.5, 1)
    f = rr.gaussian(0.5, 0.8) + rr.triangle(-1.0, 1.2)
    depth = len(calls)
    lattice = zip(range(depth), rr.spectrum._lattice(measure, xs), _lattice_rowwise_oracle(measure, xs))
    for _, (prods, phis), (oracle_prods, oracle_phis) in lattice:
        assert prods.tobytes() == oracle_prods.tobytes()
        assert phis.tobytes() == oracle_phis.tobytes()
    # a second h between depths, as finite_depth_residual takes at its last depth
    terms = zip(calls, exact_terms(measure, xs), _exact_terms_loop_oracle(measure, xs))
    for hs, term, oracle in terms:
        for h in [{"g": g, "f": f}[name] for name in hs]:
            assert term(h).tobytes() == oracle(h).tobytes()
    # two chunks of paths and several frequency blocks, every depth direct
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rr.perpetuity, "CHUNK_ELEMS", 1000)
        mp.setattr(rr.spectrum, "CHUNK_ELEMS", 1000)
        mp.setattr(rr.spectrum, "_MOMENT_Y0", 0.0)
        mc = _terms_mc(measure, g, xs, depth, 300, seed)
        for term, oracle in zip(mc, _terms_mc_per_path_oracle(measure, g, xs, depth, 300, seed)):
            assert term.tobytes() == oracle.tobytes()


def test_lattice_groups_many_scales_like_rowwise_oracle():
    # 66 distinct scales: a base-(depth + 1) code of the exponents would
    # overflow int64 from depth 1; the ranks stay below the group count
    scales = 0.5 + np.arange(66) / 200.0
    measure = rr.build_measure([(float(l), 0.1 * k, 1 / 66) for k, l in enumerate(scales)])
    xs = np.array([1.7])
    lattice = zip(range(3), rr.spectrum._lattice(measure, xs), _lattice_rowwise_oracle(measure, xs))
    for n, (prods, phis), (oracle_prods, oracle_phis) in lattice:
        assert len(prods) == math.comb(n + 66, 65)
        assert prods.tobytes() == oracle_prods.tobytes()
        assert phis.tobytes() == oracle_phis.tobytes()


LATTICE_CASES = {  # d: (atoms, depth)
    1: ([(0.5, 1.0, 0.5), (0.5, -0.75, 0.5)], 25),
    3: ([(0.5, -0.75, 0.5), (0.25, 1.125, 0.25), (0.75, -0.375, 0.25)], 12),
    # depth 3 is checked in test_lattice_groups_many_scales_like_rowwise_oracle
    66: ([(0.5 + k / 200.0, 0.1 * k, 1 / 66) for k in range(66)], 2),
}


def _fresh_plans(monkeypatch, limit=_PLAN_CACHE_BYTES):
    """An empty group-plan cache of ``limit`` bytes, and the list of the
    depths that :func:`_lex_ranks` ranks from then on."""
    monkeypatch.setattr(rr.spectrum, "_PLANS", {})
    monkeypatch.setattr(rr.spectrum, "_plan_bytes", 0)
    monkeypatch.setattr(rr.spectrum, "_PLAN_CACHE_BYTES", limit)
    calls = []

    def counted(steps, depth):
        calls.append(depth)
        return _lex_ranks(steps, depth)
    monkeypatch.setattr(rr.spectrum, "_lex_ranks", counted)
    return calls


def _walk(measure, xs, depth):
    return [(prods.tobytes(), phis.tobytes()) for _, (prods, phis) in
            zip(range(depth), rr.spectrum._lattice(measure, xs))]


def _oracle_walk(measure, xs, depth):
    return [(prods.tobytes(), phis.tobytes()) for _, (prods, phis) in
            zip(range(depth), _lattice_rowwise_oracle(measure, xs))]


def _kept_bytes():
    return sum(sys.getsizeof(a) for plan in rr.spectrum._PLANS.values() for a in plan)


class TestGroupPlanCache:
    """The lattice's group plans are built once per (d, depth) and kept."""

    @pytest.mark.parametrize("d", sorted(LATTICE_CASES))
    def test_cold_and_warm_walks_match_rowwise_oracle(self, monkeypatch, d):
        atoms, depth = LATTICE_CASES[d]
        measure = rr.build_measure(atoms)
        xs = np.array([0.0, 0.37, 1.7, 6.3]) if d < 66 else np.array([1.7])
        want = _oracle_walk(measure, xs, depth)
        calls = _fresh_plans(monkeypatch)
        for walk in ("cold", "warm"):
            assert _walk(measure, xs, depth) == want, walk
            # each depth is ranked once, by the cold walk
            assert calls == list(range(1, depth + 1)), walk
        assert sorted(rr.spectrum._PLANS) == [(d, n) for n in range(1, depth + 1)]

    def test_cached_arrays_are_read_only(self, monkeypatch):
        atoms, depth = LATTICE_CASES[3]
        _fresh_plans(monkeypatch)
        _walk(rr.build_measure(atoms), np.ones(2), depth)
        arrays = [a for plan in rr.spectrum._PLANS.values() for a in plan]
        assert len(arrays) == 3 * depth
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_warm_series_ranks_nothing(self, monkeypatch):
        atoms, depth = LATTICE_CASES[3]
        measure = rr.build_measure(atoms)
        xs = np.linspace(0.0, 9.0, 37)
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        calls = _fresh_plans(monkeypatch)
        cold, _ = rr.sum_series_grid(measure, g, xs, eps=0.0, n_max=depth)
        assert calls == list(range(1, depth + 1))
        calls.clear()
        warm, _ = rr.sum_series_grid(measure, g, xs, eps=0.0, n_max=depth)
        assert calls == []
        assert warm.tobytes() == cold.tobytes()

    def test_cold_forward_product_of_2000_depths_does_not_recurse(self, monkeypatch):
        # |l| - 1 = 1e-3 keeps the tail above 1e-15 for all 2,000 factors
        measure = rr.build_measure([(1.001, 1.0, 0.5), (1.001, -0.5, 0.5)])
        xs = np.array([0.0, 0.3, 1.0])
        calls = _fresh_plans(monkeypatch)
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            out = rr.forward_charfn_product(measure, xs)
        finally:
            sys.setrecursionlimit(limit)
        assert calls == list(range(1, 2001))
        assert out.tobytes() == _forward_charfn_product_oracle(measure, xs).tobytes()

    def test_retained_memory_within_bound(self, monkeypatch):
        _fresh_plans(monkeypatch)
        for atoms, depth in LATTICE_CASES.values():
            _walk(rr.build_measure(atoms), np.ones(1), depth)
        assert rr.spectrum._plan_bytes == _kept_bytes()
        assert 0 < _kept_bytes() <= _PLAN_CACHE_BYTES

    @pytest.mark.parametrize("limit", [0, 2000, 6000])
    def test_walk_past_the_bound_keeps_bytes(self, monkeypatch, limit):
        # plans past the bound are built for their walk and not kept
        atoms, depth = LATTICE_CASES[3]
        measure = rr.build_measure(atoms)
        xs = np.array([0.0, 0.37, 1.7, 6.3])
        want = _oracle_walk(measure, xs, depth)
        _fresh_plans(monkeypatch, limit)
        for _ in range(2):
            assert _walk(measure, xs, depth) == want
        assert rr.spectrum._plan_bytes == _kept_bytes() <= limit
        assert len(rr.spectrum._PLANS) < depth

    def test_concurrent_walks_match_oracle_and_count_bytes(self, monkeypatch):
        # more threads than cores, switching often: every walk keeps its
        # bytes, and the byte count matches what the cache holds
        atoms, depth = LATTICE_CASES[3]
        measure = rr.build_measure(atoms)
        xs = np.array([0.37, 1.7])
        want = _oracle_walk(measure, xs, depth)
        _fresh_plans(monkeypatch)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append(_walk(measure, xs, depth)))
                       for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 6
        assert len(rr.spectrum._PLANS) == depth
        assert rr.spectrum._plan_bytes == _kept_bytes()


class CountingNumpy:
    """The numpy module with its ``exp`` calls recorded by argument shape."""

    def __init__(self):
        self.exp_shapes = []

    def exp(self, x):
        self.exp_shapes.append(np.shape(x))
        return np.exp(x)

    def __getattr__(self, name):
        return getattr(np, name)


class TestOncePerDistinctArgument:
    """Each transform row and phase column is evaluated once per distinct argument."""

    EXACT_MIXED = [(0.5, -0.75, 0.5), (0.25, 1.125, 0.25), (0.75, -0.375, 0.25)]

    def test_exact_terms_evaluate_only_products_new_since_previous_depth(self):
        measure = rr.build_measure(self.EXACT_MIXED)
        g = CountingFourier(rr.gaussian(0, 1) - rr.gaussian(1, 1))
        f = CountingFourier(rr.gaussian(0.5, 1))
        xs = np.linspace(0.0, 9.0, 37)
        previous, expected, groups = set(), [], 0
        depths = zip(range(10), exact_terms(measure, xs), _lattice_rowwise_oracle(measure, xs))
        for _, term, (prods, _) in depths:
            term(g)
            new = set(prods.tolist()) - previous
            previous = set(prods.tolist())
            expected.append((len(new), len(xs)))
            groups += len(prods)
        # 1/4 = (1/2)^2: the depth-n products (2n + 1 of them new) repeat
        # those of depth n - 1, so 120 of the 285 rows are evaluated
        assert g.shapes == expected
        assert sum(n for n, _ in expected) == 120 and groups == 285
        # another h has no rows to copy: it evaluates every distinct product
        term(f)
        assert f.shapes == [(len(previous), len(xs))]

    @pytest.mark.parametrize("atoms", [
        EXACT_MIXED,
        [(2.0, 0.5, 0.5), (3.0, -1.0, 0.25), (4.0, 1.5, 0.25)],
    ], ids=["exact-mixed", "mc-mixed"])
    def test_direct_route_takes_one_phase_column_per_distinct_partial_sum(
            self, monkeypatch, atoms):
        measure = rr.build_measure(atoms)
        g = rr.gaussian(0, 1) - rr.gaussian(1, 1)
        xs = np.unique(np.abs(rr.symmetric_grid(8.0, 33)))
        counter = CountingNumpy()
        monkeypatch.setattr(rr.spectrum, "_MOMENT_Y0", 0.0)
        monkeypatch.setattr(rr.spectrum, "np", counter)
        for _ in _terms_mc(measure, g, xs, 6, 500, 2):
            pass
        # one chunk and one frequency block: the running sums equal
        # np.cumsum of the drawn increments bit for bit
        idx = _draw(measure, 6, 500, 2)
        prods = np.cumprod(measure.scales[idx], axis=1)
        sums = np.cumsum(measure.shifts[idx] / prods, axis=1)
        distinct = [len(np.unique(sums[:, n])) for n in range(6)]
        assert counter.exp_shapes == [(len(xs), k) for k in distinct]
        assert distinct[0] == 3 and max(distinct) < 500


PRIMITIVES = st.one_of(
    st.builds(lambda a, w: rr.indicator(a, a + w),
              st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
    st.builds(rr.triangle, st.floats(-2.0, 2.0), st.floats(0.1, 1.5)),
    st.builds(rr.gaussian, st.floats(-2.0, 2.0), st.floats(0.1, 1.2)),
)


@settings(max_examples=25, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.sampled_from([-3.0, -2.0, -1.5, 0.5, 2.0, 3.0, 4.0]),
                  st.floats(-2.0, 2.0), st.integers(1, 4)),
        min_size=2, max_size=3,
    ),
    parts=st.lists(st.tuples(st.floats(-1.5, 1.5), PRIMITIVES), min_size=1, max_size=3),
    image=st.tuples(st.sampled_from([-2.0, -0.5, 3.0]), st.floats(-1.0, 1.0)),
    x_max=st.floats(0.5, 12.0),
    points=st.integers(2, 40),
    affine=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_moment_route_matches_direct_route_generated(atoms, parts, image, x_max, points,
                                                     affine, seed):
    # expansive measures with mixed and negative scales, a forcing term of
    # every primitive kind minus an affine image, and small chunks: 300
    # paths of depth 24 in chunks of 41 rows, frequency blocks of 24 rows
    total = sum(w for _, _, w in atoms)
    measure = rr.build_measure([(l, m, w / total) for l, m, w in atoms])
    assume(rr.classify_regime(measure).regime is rr.Regime.LOG_EXPANSIVE)
    f = rr.ClosedFormFn(tuple(t for c, p in parts for t in (c * p).terms))
    g = f - rr.affine_image(f, *image)
    rng = np.random.default_rng(seed)
    if affine:
        xs = rr.symmetric_grid(x_max, 2 * points + 1)
    else:
        xs = np.sort(rng.uniform(-x_max, x_max, points))
    strategy = rr.MonteCarloStrategy(sample_count=300, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rr.perpetuity, "CHUNK_ELEMS", 1000)
        mp.setattr(rr.spectrum, "CHUNK_ELEMS", 1000)
        values, report = rr.sum_series_grid(measure, g, xs, strategy, eps=0.0, n_max=24)
        mp.setattr(rr.spectrum, "_MOMENT_Y0", 0.0)
        direct, direct_report = rr.sum_series_grid(measure, g, xs, strategy, eps=0.0, n_max=24)
    assert report.terms_used == direct_report.terms_used == 24
    if rr.spectrum._moment_plan(g, np.unique(np.abs(xs))) is None:
        # a non-affine grid (or a g too wide for the route) keeps the direct kernel
        assert values.tobytes() == direct.tobytes()
    else:
        assert np.max(np.abs(values - direct)) <= _moment_route_tolerance(g, 24)


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

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("atoms", [[(0.5, 1, 1.0)], [(2, 0, 0.5), (2, 1, 0.5)]],
                             ids=["contractive", "expansive"])
    def test_nonfinite_mass_refused_first(self, atoms, mass):
        # a nonzero-mean g shows that mass is checked before anything else
        m = rr.build_measure(atoms)
        with pytest.raises(ValueError, match="mass must be finite"):
            rr.solve_spectrum(m, rr.indicator(0, 1), mass, rr.symmetric_grid(5.0, 17))

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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_value_at_refuses_nonfinite(self, x):
        # on the README measure, argmin once picked the first node for these
        measure = rr.build_measure([(0.5, 1.0, 1.0)])
        g = rr.gaussian(0, 1) - rr.gaussian(3, 1)
        spec = rr.solve_spectrum(measure, g, 0.0, rr.symmetric_grid(10.0, 65))
        with pytest.raises(ValueError, match="not a grid frequency"):
            spec.value_at(x)

    @pytest.mark.parametrize("given", [False, True], ids=["no-report", "report-given"])
    def test_classifies_at_most_once(self, monkeypatch, contractive_pair, given):
        # the series used to classify again for its own critical-regime refusal
        measure, _, g = contractive_pair
        report = rr.classify_regime(measure)
        calls = []
        monkeypatch.setattr(rr.spectrum, "classify_regime",
                            lambda m: calls.append(m) or report)
        rr.solve_spectrum(measure, g, 0.0, rr.symmetric_grid(10.0, 33),
                          regime_report=report if given else None)
        assert len(calls) == (0 if given else 1)

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
        assert rr.finite_depth_residual(measure, f, g, 1, xs) <= 1e-8
        broken = f + rr.gaussian(5, 1)
        assert rr.residual_time(measure, broken, g).sup_residual > 1e-3
        assert rr.finite_depth_residual(measure, broken, g, 1, xs) > 1e-3
