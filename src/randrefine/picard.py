"""CDF-level fixed-point iteration and the integrability diagnostic.

Integrating the refinement identity turns it into an equation between
running integrals:

    F(x) = sum_i p_i F(l_i x - m_i) + G(x),      G(x) = int_{-inf}^x g.

With positive scales the weights sum to 1, so the homogeneous part of
the right-hand side maps every constant to itself: the map is not a
sup-norm contraction, only non-expansive.  When E L < 1 Picard sweeps
still shrink the non-constant part geometrically, while discretisation
error can drift the neutral constant from sweep to sweep, so the
sup-delta may stall at a floor instead of reaching a small ``tol``.
Differentiating the fixed point recovers a solution candidate of the
original equation when one exists.  Not every bounded Lipschitz fixed
point is an integral, though -- the diagnostic at the bottom estimates
whether the derivative is summable by watching the L1 trend over
growing windows.

The image points ``l_i * t - m_i`` of the grid never change, so
``picard_iterate`` locates them once per atom, by arithmetic on the
uniform grid, and every sweep is a gather over that plan, computed block
by block with ``np.interp``'s own formula so the values match it bit for
bit.  The sweeps run on the calling thread: a thread pool over the
blocks ran faster on two idle CPUs but, on CPUs shared with other work,
its speed followed their load from one run to the next.

The linear part ``A v(t) = sum_i p_i v(l_i t - m_i)`` maps polynomials
of degree k to themselves, with eigenvalues 1 (constants) and
``rho_k = E L^k``, all known before the first sweep.  Once two successive
delta ratios settle on one ``rho_k``, one sweep jumps to
``T x + c_k (T x - x)`` with ``c_k = rho_k / (1 - rho_k)``: the sum of
that mode's remaining geometric series.  The affine mode goes first, and
the quadratic and cubic ones usually settle after it; a mode is used only
while ``rho_k`` falls with k.  A jump costs two in-cache operations per
block.  ``deltas`` stay the plain residuals ``max|T x - x|``, a jump never
ends a run, and so the values returned are always a plain sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closedform import ClosedFormFn
from .errors import NegativeScale, NotMeanContractive
from .gridfn import GridFn, finite_points, grid_size, linspace_index
from .measure import RandomAffineMeasure, classify_regime


# Nodes per sweep block: a block's gathers and temporaries stay in cache.
_BLOCK = 32_768


@dataclass(frozen=True)
class PicardResult:
    cdf: GridFn
    iterations: int
    final_delta: float
    converged: bool
    deltas: tuple[float, ...]
    # (sweep, k): the 0-based sweep that jumped, on the mode of ratio E L^k
    jumps: tuple[tuple[int, int], ...] = ()


def picard_iterate(
    measure: RandomAffineMeasure,
    g: ClosedFormFn,
    window: tuple[float, float],
    step: float,
    tol: float = 1e-9,
    max_iter: int = 500,
    start: str = "zero",
    check_integral_identity: bool = False,
) -> PicardResult:
    """Iterate the CDF-level map to its fixed point on a uniform grid.

    Requires mean-contractive positive scales.  Start ``"zero"`` uses the
    null function, ``"forcing"`` starts from G (both converge to the same
    fixed point; the pair is used as a uniqueness check).  Points that the
    maps send outside the window are read through the extrapolation
    constants: 0 on the left, the current right-edge value on the right.
    The run converges when a sweep changes no node by ``tol`` or more;
    ``tol`` must be finite and non-negative, and 0 runs all ``max_iter``
    sweeps.

    ``check_integral_identity=True`` additionally estimates the limit CDF of
    the backward iterates and warns (never fails) when
    ``int g * Phi != int g``, the hypothesis under which a Lipschitz fixed
    point is guaranteed to exist.
    """
    report = classify_regime(measure)
    if not report.scales_positive:
        raise NegativeScale("CDF-level iteration needs almost-surely positive scales")
    if not report.mean_contractive:
        raise NotMeanContractive(
            f"mean scale {report.mean_scale!r} must be < 1"
        )
    if start not in ("zero", "forcing"):
        raise ValueError("start must be 'zero' or 'forcing'")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")

    t_min, t_max = window
    n = grid_size(t_min, t_max, step)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")

    if check_integral_identity:
        _warn_on_integral_identity(measure, g)

    nodes = np.linspace(t_min, t_max, n)
    # G is elementwise, so blocks give the same bytes with smaller temporaries.
    forcing = np.empty(n)
    for s in range(0, n, _BLOCK):
        forcing[s:s + _BLOCK] = g.antiderivative(nodes[s:s + _BLOCK])
    plans = [(_interp_plan(nodes, l, m), p) for l, m, p in measure.atoms]
    dx = np.diff(nodes)
    del nodes

    values = np.zeros(n) if start == "zero" else forcing.copy()
    new = np.empty(n)
    slopes = np.empty(n - 1)
    term, gathered = np.empty(_BLOCK), np.empty(_BLOCK)
    blocks = range(0, n, _BLOCK)
    block_max = np.empty(len(blocks))
    modes = _modes(measure)
    settled, mode, prev = 0, 0, 0.0
    deltas: list[float] = []
    jumps: list[tuple[int, int]] = []
    converged = False
    for it in range(max_iter):
        # Never on the last sweep, so the values returned are a plain T x.
        jump = settled >= 2 and it < max_iter - 1
        # np.interp's formula: slope * (x - t[j]) + v[j], slope = dv / dt.
        np.subtract(values[1:], values[:-1], out=slopes)
        slopes /= dx
        for k, s in enumerate(blocks):
            e = min(s + _BLOCK, n)
            out = new[s:e]
            out[:] = forcing[s:e]
            for (a, b, j, off), p in plans:
                # Points left of the window read 0.0; adding it changes no
                # bit, since G sums from +0.0 and so no sum here is -0.0.
                lo, hi = max(a, s), min(b, e)
                if lo < hi:
                    jj = j[lo - a:hi - a].astype(np.intp)
                    r, v = term[:hi - lo], gathered[:hi - lo]
                    # "clip" never clips (j < n - 1) but, unlike the
                    # default "raise", writes to out without a copy.
                    np.take(slopes, jj, out=r, mode="clip")
                    r *= off[lo - a:hi - a]
                    r += np.take(values, jj, out=v, mode="clip")
                    r *= p
                    out[lo - s:hi - s] += r
                if b < e:
                    out[max(b, s) - s:] += p * values[-1]
            d = term[:e - s]
            np.subtract(out, values[s:e], out=d)
            if jump:
                out += np.multiply(d, modes[mode][2], out=gathered[:e - s])
            block_max[k] = np.max(np.abs(d, out=d))
        values, new = new, values
        # np.max, not the built-in max, so a NaN delta propagates.
        delta = float(np.max(block_max))
        deltas.append(delta)
        if jump:
            jumps.append((it, mode + 1))
        # A jumped iterate is never returned: a plain sweep follows it.
        if delta < tol and not jump:
            converged = True
            break
        # A ratio counts only between plain iterates: after a jump the streak
        # restarts below 0, so the ratio that reads the jumped iterate is
        # skipped and three plain sweeps separate two jumps.
        k = _settled_mode(modes, prev, delta)
        if jump:
            settled = -1
        elif k is None or settled < 0:
            settled = 0
        elif settled and k == mode:
            settled += 1
        else:
            settled, mode = 1, k
        prev = delta
    cdf = GridFn(t_min, t_max, step, values, 0.0, float(values[-1]))
    return PicardResult(cdf, len(deltas), deltas[-1], converged, tuple(deltas),
                        tuple(jumps))


def _modes(measure: RandomAffineMeasure) -> list[tuple[float, float, float]]:
    """``(rho_k, half width, c_k)`` of the polynomial modes ``k = 1, 2, 3``.

    ``rho_k = E L^k``.  A jump scales a mode of ratio r by
    ``(r - rho_k) / (1 - rho_k)``, so a half width of at most
    ``0.1 (1 - rho_k)`` shrinks whatever mode settled in the window, and
    keeps a stall, whose ratio tends to 1, out of it.  The list stops at
    the first ``rho_k`` that does not fall below ``rho_{k-1}``
    (``rho_0 = 1``): a scale above 1 weighs more in each higher power, and
    a window around a ``rho_k`` that grows with k would admit ratios of no
    decaying mode (a measure with ``E L = 0.993`` has ``E L^2 = 1.23``).
    """
    modes = []
    prev = 1.0
    for k in (1, 2, 3):
        rho = float(np.dot(measure.weights, measure.scales ** k))
        if not rho < prev:
            break
        modes.append((rho, min(0.05 * rho, 0.1 * (1.0 - rho)), rho / (1.0 - rho)))
        prev = rho
    return modes


def _settled_mode(modes, prev: float, delta: float) -> int | None:
    """The first mode whose window holds the ratio ``delta / prev``."""
    if prev > 0:
        for k, (rho, width, _) in enumerate(modes):
            if abs(delta - rho * prev) <= width * prev:
                return k
    return None


def _interp_plan(nodes: np.ndarray, l: float, m: float):
    """Where ``np.interp(l*nodes - m, nodes, v, left=0.0, right=v[-1])`` reads.

    A positive ``l`` makes the image points non-decreasing: points ``[:a]``
    lie left of the window and read 0.0, points ``[b:]`` at or past its
    right end read ``v[-1]``, and point ``a + k`` lies ``off[k]`` past node
    ``j[k]``, inside its interval.

    :func:`randrefine.gridfn.linspace_index` places each point at most one
    interval off, and one step up or down against the nodes settles it.
    Grids too fine for that bound take ``np.searchsorted``.
    """
    n = len(nodes)
    pts = l * nodes - m
    a = int(np.searchsorted(pts, nodes[0], side="left"))
    b = int(np.searchsorted(pts, nodes[-1], side="left"))
    j, off = np.empty(b - a, np.int32), np.empty(b - a)
    for s in range(a, b, _BLOCK):
        e = min(s + _BLOCK, b)
        pb = pts[s:e]
        jb = linspace_index(pb, nodes[0], nodes[-1], n)
        if jb is None:
            jb = np.searchsorted(nodes, pb, side="right") - 1
        else:
            jb += nodes[jb + 1] <= pb
            jb -= nodes[jb] > pb
        j[s - a:e - a] = jb
        np.subtract(pb, nodes[jb], out=off[s - a:e - a])
    return a, b, j, off


def _warn_on_integral_identity(measure, g):
    from .perpetuity import check_cdf_integral_identity, estimate_cdf

    lo, hi = g.support()
    pad = 0.25 * (hi - lo) + 1.0
    ts = np.linspace(lo - pad, hi + pad, 2001)
    est = estimate_cdf(measure, ts, 20_000, rng_seed=1)
    tol = 5.0 * g.l1_upper_bound() / math.sqrt(20_000) + 1e-6
    if not check_cdf_integral_identity(g, est, tol):
        warnings.warn(
            "estimated limit CDF does not satisfy the integral identity "
            "int g*Phi == int g; the iteration may still converge",
            stacklevel=3,
        )


def cdf_equation_residual(
    measure: RandomAffineMeasure,
    cdf: GridFn,
    g: ClosedFormFn,
    probe_points,
) -> float:
    """Max over probes of |F(x) - sum_i p_i F(l_i x - m_i) - G(x)|; the
    probes must be finite and at least one."""
    xs = finite_points(probe_points, "probe_points")
    if xs.size == 0:
        raise ValueError("probe_points must not be empty")
    acc = cdf(xs) - g.antiderivative(xs)
    for l, m, p in measure.atoms:
        acc = acc - p * cdf(l * xs - m)
    return float(np.max(np.abs(acc)))


def differentiate(cdf: GridFn) -> GridFn:
    """Finite-difference derivative: central inside, one-sided at the ends."""
    v = cdf.values
    h = cdf.step
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (v[1] - v[0]) / h
    out[-1] = (v[-1] - v[-2]) / h
    return GridFn(cdf.t_min, cdf.t_max, h, out, 0.0, 0.0)


def integrability_diagnostic(
    cdf: GridFn,
    window_schedule: Sequence[tuple[float, float]],
) -> tuple[bool, list[float]]:
    """Estimate whether the derivative of ``cdf`` is absolutely integrable.

    Integrates |dF/dt| over each window of the expanding schedule.  The
    trend is Cauchy-like -- and the function judged integrable -- when each
    successive increment is at most half the one before, plus 1e-12; a
    harmonic staircase (bounded F whose slope packets decay like 1/n) keeps
    adding O(1) increments and is flagged non-integrable.
    """
    if len(window_schedule) < 3:
        raise ValueError("need at least three windows to see a trend")
    trend: list[float] = []
    for lo, hi in window_schedule:
        sub = GridFn.from_function(cdf, lo, hi, cdf.step,
                                   left_value=cdf.left_value,
                                   right_value=cdf.right_value)
        deriv = differentiate(sub)
        trend.append(deriv.l1_norm())
    increments = np.diff(trend)
    ok = True
    for prev, cur in zip(increments[:-1], increments[1:]):
        if cur > prev / 2.0 + 1e-12:
            ok = False
            break
    return ok, trend
