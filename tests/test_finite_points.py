"""One input rule for point arrays: every public entry point that takes
frequencies, nodes or probes refuses a non-finite one before any work."""

import math
import re
import time

import numpy as np
import pytest

import randrefine as rr
from randrefine import perpetuity, spectrum
from randrefine.gridfn import finite_points

EXPANSIVE = rr.build_measure([(2.0, 0.0, 0.5), (2.0, 1.0, 0.5)])
CONTRACTIVE = rr.build_measure([(0.5, 1.0, 1.0)])
F = rr.gaussian(0, 1) - rr.gaussian(3, 1)
G = rr.manufacture_inhomogeneity(CONTRACTIVE, F)
CDF = rr.GridFn.from_function(F.antiderivative, -5.0, 5.0, 0.01)
XS = np.linspace(-2.0, 2.0, 5)


def _spectrum(xs=XS, values=None):
    values = np.exp(-XS**2).astype(complex) if values is None else values
    return rr.Spectrum(xs, values, 0.0, rr.TruncationReport(1, 0.0, True))


# (argument name as the message gives it, the call on the bad points)
ENTRY_POINTS = {
    "sum_series_grid": ("x_grid", lambda p: rr.sum_series_grid(EXPANSIVE, G, p)),
    "solve_spectrum": ("x_grid", lambda p: rr.solve_spectrum(EXPANSIVE, G, 1.0, p)),
    "forward_charfn_product": ("x_grid", lambda p: rr.forward_charfn_product(EXPANSIVE, p)),
    "invert_spectrum-t_grid": ("t_grid", lambda p: rr.invert_spectrum(_spectrum(), p)),
    "invert_spectrum-x_grid": ("spec.x_grid", lambda p: rr.invert_spectrum(_spectrum(p), XS)),
    "invert_spectrum-values": (
        "spec.values", lambda p: rr.invert_spectrum(_spectrum(values=p.astype(complex)), XS)),
    "estimate_charfn": ("x_grid", lambda p: rr.estimate_charfn(EXPANSIVE, p, 100)),
    "estimate_cdf": ("t_grid", lambda p: rr.estimate_cdf(CONTRACTIVE, p, 100)),
    "finite_depth_residual": (
        "x_probes", lambda p: rr.finite_depth_residual(EXPANSIVE, F, G, 2, p)),
    "cdf_equation_residual": (
        "probe_points", lambda p: rr.cdf_equation_residual(CONTRACTIVE, CDF, G, p)),
}


@pytest.fixture
def no_work(monkeypatch):
    """Every exact walk, path draw, inversion and grid read fails the test."""
    def work(*args, **kwargs):
        pytest.fail("work started before the input was checked")
    for module, name in ((spectrum, "_lattice"), (spectrum, "path_chunks"),
                         (perpetuity, "path_chunks"), (spectrum, "_chirp_z")):
        monkeypatch.setattr(module, name, work)
    monkeypatch.setattr(rr.GridFn, "__call__", work)


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_nonfinite_point_refused_before_any_work(no_work, entry, bad, at):
    name, call = ENTRY_POINTS[entry]
    points = XS.copy()
    points[at] = bad
    shown = (points.astype(complex) if name == "spec.values" else points)[at].item()
    message = f"{name} must be finite, got {shown!r} at index {at}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(points)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_forward_charfn_product_refuses_at_once(bad):
    # it used to run all 2,000 depths (about 0.25 s) and return NaN
    start = time.perf_counter()
    with pytest.raises(ValueError, match="x_grid must be finite"):
        rr.forward_charfn_product(EXPANSIVE, [1.0, bad])
    assert time.perf_counter() - start < 0.05


def test_finite_points_rule():
    assert finite_points(2, "x").tolist() == [2.0]
    assert finite_points([1, 2], "x").dtype == np.float64
    assert finite_points([1j], "v", complex).dtype == np.complex128
    assert finite_points([], "x").shape == (0,)
    with pytest.raises(ValueError, match=re.escape("x must be 1-D, got shape (2, 1)")):
        finite_points([[0.0], [1.0]], "x")
    with pytest.raises(ValueError, match=re.escape("v must be finite, got (1+nanj) at index 1")):
        finite_points([0j, complex(1, math.nan)], "v", complex)


# Neither measure admits a nonzero mass: the four-scale one is contractive,
# with an exact series of many depths, and the maps of the other share a
# fixed point.
FOUR_SCALES = rr.build_measure([(0.3, 0, 0.25), (0.5, 0, 0.25), (0.7, 0, 0.25), (0.9, 0, 0.25)])
COMMON_FIXED_POINT = rr.build_measure([(2, 1, 0.5), (3, 2, 0.5)])


@pytest.mark.parametrize("eps", [0.0, 1e-10])
@pytest.mark.parametrize("strategy", [rr.EXACT, rr.MonteCarloStrategy(100, seed=1)],
                         ids=["exact", "mc"])
@pytest.mark.parametrize("measure, error", [
    (FOUR_SCALES, rr.MassMustBeZero),
    (COMMON_FIXED_POINT, rr.RegimeMismatch),
], ids=["contractive", "common-fixed-point"])
def test_nonzero_mass_refused_before_the_series(no_work, measure, error, strategy, eps):
    xs = rr.symmetric_grid(40.0, 4097)
    with pytest.raises(error):
        rr.solve_spectrum(measure, G, 1.0, xs, strategy, eps=eps)
