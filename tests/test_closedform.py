import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randrefine as rr
from randrefine import closedform
from randrefine.closedform import _SQRT2PI, Gaussian, Indicator, Triangle, _erf


def quadrature_transform(fn, x, points=100_000):
    """Independent oracle: trapezoid quadrature of exp(i t x) fn(t).

    Integrates piecewise between jump points, taking one-sided limits at
    the cuts, so the rule stays second-order despite discontinuities."""
    lo, hi = fn.support()
    cuts = sorted({lo, hi, *(p for p in fn.jump_points() if lo <= p <= hi)})
    total = 0j
    for c, d in zip(cuts[:-1], cuts[1:]):
        n = max(1000, int(points * (d - c) / (hi - lo)))
        ts = np.linspace(c, d, n)
        vals = fn(ts)
        shrink = 1e-9 * (d - c)
        vals[0] = fn(c + shrink)
        vals[-1] = fn(d - shrink)
        total += np.trapezoid(np.exp(1j * ts * x) * vals, ts)
    return total


class TestEvaluate:
    def test_indicator_half_open(self):
        f = rr.indicator(0, 1)
        assert f(0.5) == 1.0
        assert f(0.0) == 1.0
        assert f(1.0) == 0.0

    def test_step_pair(self):
        f = rr.indicator(0, 1) - rr.indicator(1, 2)
        assert f(1.5) == -1.0

    def test_triangle_apex(self):
        assert rr.triangle(1, 1)(1.0) == 1.0

    def test_halving_identity_pointwise(self):
        # the half-open convention makes this exact everywhere
        lhs = rr.indicator(0, 1)
        rhs = rr.indicator(0, 0.5) + rr.indicator(0.5, 1)
        ts = np.linspace(-1, 2, 3001)
        assert np.array_equal(lhs(ts), rhs(ts))


class TestFourier:
    def test_indicator_at_zero(self):
        assert rr.indicator(0, 1).fourier(0.0) == pytest.approx(1.0)

    def test_zero_mean_pair_at_zero(self):
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        assert abs(g.fourier(0.0)) <= 1e-15

    def test_indicator_at_pi_closed_form(self):
        # (e^{i pi} - 1)/(i pi) = 2i/pi, cross-checked by quadrature
        val = rr.indicator(0, 1).fourier(math.pi)
        assert val == pytest.approx(2j / math.pi, abs=1e-14)
        assert val == pytest.approx(quadrature_transform(rr.indicator(0, 1), math.pi),
                                    abs=1e-6)

    @pytest.mark.parametrize("fn", [
        rr.indicator(-0.5, 2.0),
        rr.triangle(1.0, 0.75),
        rr.gaussian(0.5, 1.25),
    ])
    @pytest.mark.parametrize("x", [0.0, 1.0, -1.0, 5.0, -5.0])
    def test_quadrature_consistency(self, fn, x):
        assert fn.fourier(x) == pytest.approx(quadrature_transform(fn, x), abs=1e-6)

    def test_gaussian_transform_value(self):
        g = rr.gaussian(0, 1)
        assert g.fourier(0.0) == pytest.approx(math.sqrt(2 * math.pi))
        assert g.fourier(2.0) == pytest.approx(
            math.sqrt(2 * math.pi) * math.exp(-2.0), abs=1e-14)


def _transform_oracle(prim, x):
    """Reference oracle: one primitive's transform on its own (the former
    per-instance ``transform``)."""
    x = np.asarray(x, dtype=float)
    if isinstance(prim, Indicator):
        width = prim.b - prim.a
        mid = 0.5 * (prim.a + prim.b)
        return width * np.sinc(width * x / (2.0 * np.pi)) * np.exp(1j * mid * x)
    if isinstance(prim, Triangle):
        w = prim.halfwidth
        core = w * np.sinc(w * x / (2.0 * np.pi)) ** 2
        return core * np.exp(1j * prim.center * x)
    s = prim.stddev
    return s * _SQRT2PI * np.exp(1j * prim.mean * x - 0.5 * (s * x) ** 2)


def _fourier_per_term_oracle(fn, x):
    """Reference oracle: ``fourier`` as one transform per term, added in
    term order (the former loop)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for c, prim in fn.terms:
        out += c * _transform_oracle(prim, x)
    return out


def assert_same_fourier_bytes(fn, x):
    # a scalar is a one-point array (numpy's scalar math may square it 1 ulp
    # away from the array loop)
    with np.errstate(all="ignore"):  # huge |x| overflows (s x)^2 to inf
        got = fn.fourier(x)
        want = _fourier_per_term_oracle(fn, x.reshape(x.shape or (1,))).reshape(x.shape)
    assert type(got) is (np.ndarray if x.shape else complex)
    assert np.shape(got) == x.shape
    assert np.asarray(got).tobytes() == want.tobytes()


# a few fixed primitives, so terms repeat exactly
PRIMITIVE_POOL = [Indicator(0.0, 1.0), Triangle(-1.5, 0.5), Gaussian(2.0, 0.75)]


@st.composite
def mixed_closed_forms(draw):
    terms = []
    for _ in range(draw(st.integers(0, 10))):
        centre = draw(st.floats(-50.0, 50.0))
        width = draw(st.floats(1e-3, 20.0))
        prim = draw(st.sampled_from([
            Indicator(centre, centre + width), Triangle(centre, width),
            Gaussian(centre, width), *PRIMITIVE_POOL]))
        terms.append((draw(st.floats(-1e6, 1e6)), prim))
    return rr.ClosedFormFn(tuple(terms))


@st.composite
def frequencies(draw):
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e15, -3e200, 5e-310]),
                      st.floats(-1e3, 1e3))
    shape = draw(st.sampled_from([(), (0,), (1,), (37,), (1, 1), (6, 9), (2, 40)]))
    values = draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(fn=mixed_closed_forms(), x=frequencies(), block=st.sampled_from([1, 5, 64, None]))
def test_fourier_matches_per_term_oracle_bytes(fn, x, block):
    # a small block cuts every array into many blocks
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(closedform, "_BLOCK_ELEMS", block)
        assert_same_fourier_bytes(fn, x)


def test_fourier_matches_per_term_oracle_bytes_across_blocks():
    # 10 terms take _BLOCK_ELEMS // 10 points a block, so 2,280 points make
    # several blocks; a transposed or strided view is read through its copy
    rng = np.random.default_rng(5)
    fn = rr.ClosedFormFn(tuple(
        (float(c), prim) for c, prim in zip(rng.normal(size=10), [
            Gaussian(0.5, 1.1), Indicator(-1.0, 0.25), Triangle(0.3, 2.0), Gaussian(-2.0, 0.4),
            Gaussian(0.5, 1.1), Triangle(1.0, 0.5), Indicator(2.0, 3.5), Gaussian(1.0, 3.0),
            Triangle(0.3, 2.0), Gaussian(4.0, 0.9)])))
    x = rng.uniform(-30.0, 30.0, (40, 57))
    x[0, :3] = [0.0, -0.0, 1e15]
    assert x.size > closedform._BLOCK_ELEMS // len(fn.terms)
    assert_same_fourier_bytes(fn, x)
    assert_same_fourier_bytes(fn, x.T)
    assert_same_fourier_bytes(fn, x[::3, 5])


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-3, max_value=3),
    b=st.floats(min_value=-3, max_value=3),
    x=st.floats(min_value=-20, max_value=20),
)
def test_fourier_linearity(a, b, x):
    u = rr.triangle(0, 1)
    v = rr.gaussian(1, 0.5)
    combo = a * u + b * v
    lhs = combo.fourier(x)
    rhs = a * u.fourier(x) + b * v.fourier(x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


class TestAntiderivative:
    def test_indicator_saturates(self):
        assert rr.indicator(0, 1).antiderivative(2.0) == 1.0

    def test_zero_mass_pair_vanishes_far_right(self):
        g = rr.indicator(0, 1) - rr.indicator(1, 2)
        assert g.antiderivative(10.0) == 0.0

    def test_gaussian_half_mass_at_center(self):
        g = rr.gaussian(0, 1)
        assert g.antiderivative(0.0) == pytest.approx(0.5 * g.mass())

    def test_triangle_continuity_and_mass(self):
        t = rr.triangle(2, 1.5)
        xs = np.linspace(0, 4, 4001)
        vals = t.antiderivative(xs)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] == pytest.approx(t.mass())

    def test_limit_equals_transform_at_zero(self):
        fn = 2.0 * rr.triangle(0, 1) - rr.gaussian(3, 0.5) + rr.indicator(-2, -1)
        assert fn.antiderivative(1e4) == pytest.approx(fn.fourier(0.0).real, abs=1e-12)

    def test_nondecreasing_for_nonnegative(self):
        fn = rr.triangle(0, 1) + 0.5 * rr.gaussian(1, 0.3) + rr.indicator(2, 3)
        xs = np.linspace(-5, 6, 2001)
        assert np.all(np.diff(fn.antiderivative(xs)) >= -1e-15)


class TestConstruction:
    @pytest.mark.parametrize("make, args", [
        (rr.indicator, (0, math.inf)), (rr.indicator, (-math.inf, 0)),
        (rr.triangle, (0, math.inf)), (rr.triangle, (math.nan, 1)),
        (rr.gaussian, (math.nan, 1)), (rr.gaussian, (0, math.inf)),
    ])
    def test_nonfinite_parameters_rejected(self, make, args):
        with pytest.raises(ValueError):
            make(*args)


class TestErf:
    def test_matches_math_erf_on_dense_grid(self):
        xs = np.linspace(-10, 10, 200_001)
        expected = np.array([math.erf(x) for x in xs])
        assert np.max(np.abs(_erf(xs) - expected)) <= 4.5e-16

    @pytest.mark.parametrize("x", [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 6.0, -6.0,
                                   8.0, -8.0, 30.0, -30.0, math.inf, -math.inf])
    def test_edges(self, x):
        got = _erf(x)
        assert abs(got - math.erf(x)) <= 4.5e-16
        assert math.copysign(1.0, got) == math.copysign(1.0, x)

    def test_nan_propagates(self):
        assert math.isnan(_erf(math.nan))

    def test_exactly_odd(self):
        xs = np.concatenate([np.linspace(0, 10, 100_001), np.geomspace(1e-300, 1e300, 601)])
        assert np.array_equal(_erf(-xs), -_erf(xs))

    def test_scalar_gives_float(self):
        assert isinstance(_erf(0.5), float)
        assert isinstance(rr.gaussian(0, 1).antiderivative(0.3), float)

    def test_import_leaves_scipy_unloaded(self):
        # the package loads its submodules on first use, so resolve every
        # public name before looking for scipy
        src = os.path.dirname(os.path.dirname(rr.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, randrefine; [getattr(randrefine, n) for n in randrefine.__all__]; "
                "print('scipy' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestZeroMean:
    def test_step_pair_true(self):
        assert rr.zero_mean_check(rr.indicator(0, 1) - rr.indicator(1, 2))

    def test_single_indicator_false(self):
        assert not rr.zero_mean_check(rr.indicator(0, 1))

    def test_equal_mass_gaussians_true(self):
        assert rr.zero_mean_check(2 * rr.gaussian(0, 1) - 2 * rr.gaussian(3, 1))

    def test_empty_true(self):
        assert rr.zero_mean_check(rr.zero_fn())

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1e-9, 1.0, 1e4, 1e8, 2.0 ** 60])
    def test_relative_to_l1(self, scale):
        # |ghat(0)| <= 16 n eps ||g||_1: the verdict does not depend on the units of g
        measure = rr.build_measure([(0.5, 1.0, 0.5), (0.75, 0.5, 0.5)])
        f = rr.gaussian(0, 1) - (1 / 1.2) * rr.gaussian(1.5, 1.2)
        g = rr.manufacture_inhomogeneity(measure, scale * f)
        assert rr.zero_mean_check(g)
        assert not rr.zero_mean_check(g + scale * 1e-10 * rr.gaussian(0, 1))

    def test_tiny_mass_false(self):
        assert not rr.zero_mean_check(1e-13 * rr.gaussian(0, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fn", [
        1e308 * rr.gaussian(0, 1), 1e308 * rr.gaussian(0, 1) - 1e308 * rr.gaussian(1, 1)])
    def test_overflowing_total_false(self, fn):
        # ghat(0) and the L1 bound overflow to inf (and ghat(0) to nan when
        # the two masses cancel); neither is vanishing within the bound
        assert not rr.zero_mean_check(fn)


class TestAffineImage:
    @pytest.mark.parametrize("l,m", [(2.0, 1.0), (0.5, -1.0), (-1.0, -2.0), (-0.5, 3.0)])
    def test_matches_pointwise_for_continuous(self, l, m):
        fn = rr.triangle(0.5, 1.0) + 0.3 * rr.gaussian(-1, 0.8)
        image = rr.affine_image(fn, l, m)
        ts = np.linspace(-8, 8, 1601)
        assert np.allclose(image(ts), abs(l) * fn(l * ts - m), atol=1e-14)

    def test_mass_preserved(self):
        fn = rr.indicator(0, 2) - 0.5 * rr.triangle(1, 1)
        for l, m in [(2.0, 0.0), (-3.0, 1.0), (0.25, -2.0)]:
            assert rr.affine_image(fn, l, m).mass() == pytest.approx(fn.mass())


class TestManufacture:
    def test_identity_measure_gives_zero(self):
        m = rr.build_measure([(1, 0, 1.0)])
        g = rr.manufacture_inhomogeneity(m, rr.gaussian(0, 1))
        assert g.terms == ()

    def test_dyadic_indicator_gives_zero_pointwise(self):
        # chi_[0,1) solves f(x) = f(2x) + f(2x-1) exactly
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        g = rr.manufacture_inhomogeneity(m, rr.indicator(0, 1))
        ts = np.linspace(-1, 2, 10_000)
        assert np.max(np.abs(g(ts))) == 0.0

    def test_contractive_gaussian_image(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        g = rr.manufacture_inhomogeneity(m, rr.gaussian(0, 1))
        by_prim = {prim: c for c, prim in g.terms}
        assert by_prim[Gaussian(0, 1)] == 1.0
        # the weighted image is half-amplitude, centred at (0+1)/(1/2) = 2
        assert by_prim[Gaussian(2.0, 2.0)] == -0.5
        assert abs(g.mass()) <= 1e-15

    def test_always_zero_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            atoms = [(l, m, 0.5) for l, m in
                     rng.uniform(-2, 2, (2, 2))]
            atoms = [(l if abs(l) > 0.1 else 1.0, m, p) for l, m, p in atoms]
            measure = rr.build_measure(atoms)
            f = rr.triangle(0, 1) + 0.7 * rr.gaussian(1, 0.5)
            g = rr.manufacture_inhomogeneity(measure, f)
            assert rr.zero_mean_check(g)


class TestL1Bound:
    def test_tight_for_single_primitives(self):
        for fn in (rr.indicator(0, 2), rr.triangle(1, 0.5), rr.gaussian(0, 1)):
            lo, hi = fn.support()
            ts = np.linspace(lo, hi, 200_001)
            measured = np.trapezoid(np.abs(fn(ts)), ts)
            assert measured == pytest.approx(fn.l1_upper_bound(), rel=1e-3)

    def test_upper_bounds_combinations(self):
        fn = rr.indicator(0, 1) - rr.indicator(0.5, 1.5)
        lo, hi = fn.support()
        ts = np.linspace(lo, hi, 100_001)
        assert np.trapezoid(np.abs(fn(ts)), ts) <= fn.l1_upper_bound() + 1e-6


class TestSerialization:
    def test_round_trip(self):
        fn = (rr.indicator(0, 1) - 2.5 * rr.triangle(1, 0.5)
              + 0.25 * rr.gaussian(-1, 2))
        again = rr.fn_from_json(fn.to_json())
        assert again == fn

    def test_kind_tags(self):
        import json
        payload = json.loads(rr.gaussian(1, 2).to_json())
        assert payload == [{"coef": 1.0, "kind": "gaussian", "params": [1, 2]}]


class TestPrimitiveValidation:
    def test_indicator_needs_ordering(self):
        with pytest.raises(ValueError):
            Indicator(1.0, 1.0)

    def test_triangle_needs_width(self):
        with pytest.raises(ValueError):
            Triangle(0.0, 0.0)

    def test_gaussian_needs_spread(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, -1.0)


MOMENT_FNS = {
    "indicator": rr.indicator(0.3, 1.7),
    "triangle": rr.triangle(-0.4, 1.3),
    "gaussian": rr.gaussian(0.8, 0.6),
    "negative-scale-image": rr.affine_image(
        rr.indicator(-1.0, 0.5) + 0.5 * rr.triangle(1.0, 0.7) - rr.gaussian(2.0, 0.4), -2.0, 0.5),
    "manufactured": rr.manufacture_inhomogeneity(
        rr.build_measure([(-2.0, 1.0, 0.5), (3.0, -0.5, 0.5)]),
        rr.gaussian(0.5, 0.9) + 0.8 * rr.triangle(-1.0, 1.2) + 0.3 * rr.indicator(0.0, 2.0)),
}


def _moment_quadrature(fn, c, order, points=100_000):
    """Trapezoid quadrature of ``int (t - c)^k fn(t)`` and ``int |t - c|^k
    |fn(t)|`` for k < order, piecewise between the jump points with one-sided
    limits at the cuts (as in :func:`quadrature_transform`)."""
    lo, hi = fn.support()
    cuts = sorted({lo, hi, *(p for p in fn.jump_points() if lo <= p <= hi)})
    signed, absolute = np.zeros(order), np.zeros(order)
    for a, b in zip(cuts[:-1], cuts[1:]):
        ts = np.linspace(a, b, max(1000, int(points * (b - a) / (hi - lo))))
        vals = fn(ts)
        vals[0], vals[-1] = fn(a + 1e-9 * (b - a)), fn(b - 1e-9 * (b - a))
        for k in range(order):
            signed[k] += np.trapezoid((ts - c) ** k * vals, ts)
            absolute[k] += np.trapezoid(np.abs(ts - c) ** k * np.abs(vals), ts)
    return signed, absolute


@pytest.mark.parametrize("name", sorted(MOMENT_FNS))
class TestMoments:
    """Closed-form moments about a centre c: ``fhat(y) = exp(i y c) sum_k
    (i y)^k m_k / k!`` with remainder at most ``M_K |y|^K / K!``."""

    @pytest.mark.parametrize("order", [1, 4, 9, 17])
    def test_taylor_remainder_certified(self, name, order):
        fn = MOMENT_FNS[name]
        y0 = rr.spectrum._MOMENT_Y0
        ys = np.random.default_rng(order).uniform(-y0, y0, 200)
        for c in (0.0, fn.centre()):
            k = np.arange(order + 1)
            fact = np.array([math.factorial(v) for v in k], dtype=float)
            a = np.array([1, 1j, -1, -1j])[k[:order] % 4] * fn.moments(order, c) / fact[:order]
            bounds = fn.abs_moment_bounds(order + 1, c) / fact
            taylor = np.exp(1j * ys * c) * np.polyval(a[::-1], ys)
            powers = np.abs(ys)[:, None] ** k
            remainder = bounds[order] * powers[:, order]
            # rounding: a few ulps of every Taylor term's bound, and of ||fn||_1
            rounding = 64 * np.finfo(float).eps * (powers[:, :order] @ bounds[:order])
            assert np.all(np.abs(fn.fourier(ys) - taylor) <= remainder + rounding)

    def test_abs_moment_bounds_hold(self, name):
        fn = MOMENT_FNS[name]
        c = fn.centre()
        bounds = fn.abs_moment_bounds(13, c)
        _, quad = _moment_quadrature(fn, c, 13)
        assert bounds[0] == pytest.approx(fn.l1_upper_bound(), rel=1e-15)
        assert np.all(quad <= bounds * (1 + 1e-6))
        if len(fn.terms) == 1:  # one primitive about its centre: the bound is exact
            assert quad == pytest.approx(bounds, rel=1e-6)

    def test_moments_match_quadrature(self, name):
        fn = MOMENT_FNS[name]
        for c in (0.0, fn.centre()):
            quad, _ = _moment_quadrature(fn, c, 13)
            assert np.all(np.abs(fn.moments(13, c) - quad) <= 1e-6 * fn.abs_moment_bounds(13, c))
        assert fn.moments(1)[0] == pytest.approx(fn.mass(), abs=1e-15 * fn.l1_upper_bound())
