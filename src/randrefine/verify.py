"""Residual-based membership checks for candidate solutions.

A candidate f solves the refinement identity for (measure, g) when the
pointwise residual

    r(x) = f(x) - sum_i p_i |l_i| f(l_i x - m_i) - g(x)

vanishes almost everywhere.  The checks here evaluate r on probe grids
(time domain), and the exact finite-depth series identity on the transform
side (frequency domain), whose depth 1 is the transform of r.  Both agree
on closed-form pairs to float precision.

Probe grids are uniform with an irrational sub-step offset: half-open
indicators break their identities *at* jump points (a measure-zero set),
so probes deliberately never land there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .closedform import ClosedFormFn, affine_image
from .errors import SymmetryViolated
from .gridfn import GridFn, finite_points
from .measure import RandomAffineMeasure, build_measure

#: Sub-step offset of probe grids, kept irrational so rational jump points
#: are never sampled exactly.
PROBE_OFFSET = (math.sqrt(5.0) - 1.0) / 2.0

Candidate = Union[ClosedFormFn, GridFn, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class ResidualReport:
    l1_residual: float
    sup_residual: float
    tolerance_budget: float

    def passes(self) -> bool:
        return self.sup_residual <= self.tolerance_budget

    def to_dict(self) -> dict:
        return {
            "residual_l1": self.l1_residual,
            "residual_sup": self.sup_residual,
            "tolerance_budget": self.tolerance_budget,
            "pass": self.passes(),
        }


def _probe_grid(measure: RandomAffineMeasure, *fns: ClosedFormFn) -> np.ndarray:
    """4001 uniform offset probes covering the supports and their map preimages."""
    lo = math.inf
    hi = -math.inf
    for fn in fns:
        if fn.terms:
            a, b = fn.support()
            lo, hi = min(lo, a), max(hi, b)
    if not math.isfinite(lo):
        lo, hi = -1.0, 1.0
    base_lo, base_hi = lo, hi
    for l, m, _ in measure.atoms:
        a, b = sorted(((base_lo + m) / l, (base_hi + m) / l))
        lo, hi = min(lo, a), max(hi, b)
    pad = 0.05 * (hi - lo) + 1e-3
    lo, hi = lo - pad, hi + pad
    step = (hi - lo) / 4001
    return lo + (np.arange(4001) + PROBE_OFFSET) * step


def _tolerance_budget(
    measure: RandomAffineMeasure, f: Candidate, g: ClosedFormFn
) -> float:
    scale = g.l1_upper_bound() + 1.0
    if isinstance(f, ClosedFormFn):
        return 1e-12 * (scale + f.l1_upper_bound())
    if isinstance(f, GridFn):
        # Linear interpolation error bound from the grid's second differences;
        # the residual reads f once at the probe and once per weighted image.
        v = f.values
        if len(v) >= 3:
            curvature = float(np.max(np.abs(v[2:] - 2.0 * v[1:-1] + v[:-2])))
        else:
            curvature = 0.0
        reads = 1.0 + float(np.dot(measure.weights, np.abs(measure.scales)))
        return reads * curvature / 8.0 + 1e-12 * (
            scale + float(np.max(np.abs(v), initial=0.0))
        )
    return 1e-9 * scale


def residual_time(
    measure: RandomAffineMeasure,
    f: Candidate,
    g: ClosedFormFn,
) -> ResidualReport:
    """Pointwise residual of the refinement identity on 4001 offset probes
    over the supports of g, of f when it is a closed form, and their
    preimages under the maps.

    Reports the trapezoid L1 norm and the sup over probes, together with a
    tolerance budget (float noise for closed forms, plus an interpolation
    term for grid candidates).
    """
    xs = _probe_grid(measure, f, g) if isinstance(f, ClosedFormFn) else _probe_grid(measure, g)
    r = np.asarray(f(xs), dtype=float) - g(xs)
    for l, m, p in measure.atoms:
        r = r - p * abs(l) * np.asarray(f(l * xs - m), dtype=float)
    sup = float(np.max(np.abs(r)))
    l1 = float(np.trapezoid(np.abs(r), xs))
    return ResidualReport(l1, sup, _tolerance_budget(measure, f, g))


def finite_depth_residual(
    measure: RandomAffineMeasure,
    f: ClosedFormFn,
    g: ClosedFormFn,
    depth: int,
    x_probes,
) -> float:
    """Sup residual of the exact depth-N series identity

        fhat(x) = T_N[f](x) + sum_{n<N} T_n[g](x) + ghat(x),

    which holds for every N exactly when f solves the identity.  Depth 1 is
    the transform-side residual
    ``|fhat(x) - sum_i p_i exp(i x m_i/l_i) fhat(x/l_i) - ghat(x)|``.  One
    exact walk serves all probes; a non-finite probe raises ``ValueError``."""
    from .spectrum import exact_terms

    if depth < 1:
        raise ValueError("depth must be >= 1")
    xs = finite_points(x_probes, "x_probes")
    rhs = g.fourier(xs)
    for n, term in enumerate(itertools.islice(exact_terms(measure, xs, None), depth), 1):
        rhs = rhs + term(f if n == depth else g)
    return float(np.max(np.abs(f.fourier(xs) - rhs), initial=0.0))


# ---------------------------------------------------------------------------
# critical-case solution families
# ---------------------------------------------------------------------------

def _symmetry_probes(center: float, g: ClosedFormFn, h: ClosedFormFn):
    radius = 1.0
    for fn in (g, h):
        if fn.terms:
            a, b = fn.support()
            radius = max(radius, abs(a - center), abs(b - center))
    radius *= 1.05
    step = radius / 2001
    return (np.arange(2001) + PROBE_OFFSET) * step


def example_family(
    which: str,
    g: ClosedFormFn,
    h: ClosedFormFn,
) -> tuple[RandomAffineMeasure, ClosedFormFn]:
    """Build a critical-regime fixture with a known solution family.

    ``which`` selects the reflection center s: ``"example1"`` reflects about
    0, ``"example2"`` about 1.  The measure mixes the identity map with the
    reflection ``x -> -x + 2 s`` (atoms ``(1, 0)`` and ``(-1, -2 s)``, each
    weight 1/2), and the identity pins exactly the odd part of f about
    ``(s, 0)`` to g.  Hence g must be point-antisymmetric about ``(s, 0)``
    and h mirror-symmetric about ``x = s``; then every f = h + g solves the
    identity, one solution per choice of h -- the regime's non-uniqueness.

    Symmetry of the inputs is verified numerically on offset probes, and a
    deviation above 1e-12 raises :class:`SymmetryViolated`.
    """
    centers = {"example1": 0.0, "example2": 1.0}
    if which not in centers:
        raise ValueError("which must be 'example1' or 'example2'")
    s = centers[which]
    u = _symmetry_probes(s, g, h)
    g_asym = np.max(np.abs(g(s + u) + g(s - u)))
    if g_asym > 1e-12:
        raise SymmetryViolated(
            f"g must be point-antisymmetric about ({s}, 0); deviation {g_asym:.3e}"
        )
    h_sym = np.max(np.abs(h(s + u) - h(s - u)))
    if h_sym > 1e-12:
        raise SymmetryViolated(
            f"h must be mirror-symmetric about x = {s}; deviation {h_sym:.3e}"
        )
    measure = build_measure([(1.0, 0.0, 0.5), (-1.0, -2.0 * s, 0.5)])
    return measure, h + g


def mirror_about(fn: ClosedFormFn, center: float) -> ClosedFormFn:
    """Closed form of ``t -> fn(2*center - t)`` (reflection across x = center)."""
    return affine_image(fn, -1.0, -2.0 * center)
