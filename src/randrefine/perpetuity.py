"""Sampling and exact enumeration of random affine path sums.

Two partial sums over i.i.d. draws ``(L_1, M_1), (L_2, M_2), ...`` matter:

* forward series  ``sum_{k<=n} M_k / (L_1 ... L_k)`` -- converges a.s. in
  the expansive regime and its limit law drives the spectral solver there;
* backward iterate ``Z_n = -sum_{i<=n} M_i * (L_1 ... L_{i-1})`` -- the
  value at 0 of the n-fold map composed in reversed draw order, equal in
  law to the plain n-fold iterate, and convergent in distribution in the
  contractive regime (its limit CDF feeds the CDF-level iteration).

Samplers are pure functions of (measure, parameters, seed) built on a
counter-based generator, so batches are reproducible and may run in
parallel streams.  Every Monte Carlo route draws its atom paths through
:func:`path_chunks`.  ``Generator.choice`` with weights draws one uniform
per index in row-major order, so the chunking never changes a draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormFn
from .errors import EnumerationTooLarge, RegimeMismatch, WindowTooSmall
from .gridfn import half_grid
from .measure import RandomAffineMeasure, Regime, classify_regime

#: Hard cap on exact path enumeration.
ENUMERATION_CAP = 10_000_000

#: Array elements per Monte Carlo block (path indices, or samples x frequencies).
CHUNK_ELEMS = 2_000_000

#: Most path indices (samples times depth) one Monte Carlo call may draw.
DRAW_BUDGET = 2**28


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    return np.random.Generator(np.random.Philox(key=(stream << 64) | seed))


def path_chunks(measure: RandomAffineMeasure, depth: int, count: int, rng: np.random.Generator):
    """``count`` i.i.d. atom paths of length ``depth`` as chunks ``(rows, idx)``
    of sample slices and atom indices; arguments are checked before any draw."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count * depth > DRAW_BUDGET:
        raise ValueError(
            f"{count} samples of depth {depth} exceed the draw budget of {DRAW_BUDGET} indices"
        )
    rows = max(1, CHUNK_ELEMS // depth)
    return (
        (slice(i, min(i + rows, count)),
         rng.choice(len(measure), size=(min(rows, count - i), depth), p=measure.weights))
        for i in range(0, count, rows)
    )


def forward_paths(measure: RandomAffineMeasure, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward sums ``sum_k M_k / (L_1...L_k)`` and products ``L_1...L_n`` of index rows."""
    prods = np.cumprod(measure.scales[idx], axis=1)
    return (measure.shifts[idx] / prods).sum(axis=1), prods[:, -1]


def draw_forward(
    measure: RandomAffineMeasure, depth: int, count: int, rng_seed: int, stream: int = 0
) -> np.ndarray:
    """``count`` draws of the depth-truncated forward series."""
    chunks = path_chunks(measure, depth, count, generator(rng_seed, stream))
    out = np.empty(count)
    for rows, idx in chunks:
        out[rows] = forward_paths(measure, idx)[0]
    return out


def draw_backward(
    measure: RandomAffineMeasure, depth: int, count: int, rng_seed: int, stream: int = 0
) -> np.ndarray:
    """``count`` draws of the depth-n backward iterate Z_n."""
    chunks = path_chunks(measure, depth, count, generator(rng_seed, stream))
    ls, ms = measure.scales, measure.shifts
    out = np.empty(count)
    for rows, idx in chunks:
        scales = ls[idx]
        prods = np.ones_like(scales)
        np.cumprod(scales[:, :-1], axis=1, out=prods[:, 1:])
        out[rows] = -(ms[idx] * prods).sum(axis=1)
    return out


def sample_forward_series(
    measure: RandomAffineMeasure, depth: int, rng_seed: int
) -> float:
    """One draw of ``sum_{k<=depth} M_k / (L_1 ... L_k)``."""
    return float(draw_forward(measure, depth, 1, rng_seed)[0])


def sample_backward_iterate(
    measure: RandomAffineMeasure, depth: int, rng_seed: int
) -> float:
    """One draw of ``Z_depth = -sum_i M_i * (L_1 ... L_{i-1})``."""
    return float(draw_backward(measure, depth, 1, rng_seed)[0])


def forward_truncation_depth(
    measure: RandomAffineMeasure, tail_tol: float = 1e-14, cap: int = 500
) -> int:
    """Depth at which the forward tail is below ``tail_tol``.

    With every ``|l| > 1`` the tail after n terms is bounded by
    ``max|m| / (lam_min - 1) * lam_min^{-n}``; otherwise no deterministic
    geometric bound exists and the cap is used.
    """
    lam = float(np.min(np.abs(measure.scales)))
    mmax = float(np.max(np.abs(measure.shifts)))
    if mmax == 0.0:
        return 1
    if lam <= 1.0:
        return cap
    n = math.log(mmax / (tail_tol * (lam - 1.0))) / math.log(lam)
    return max(1, min(cap, int(math.ceil(n))))


def backward_default_depth(report, target: float = 1e-12, cap: int = 200) -> int:
    """Depth making the expected contraction factor smaller than ``target``."""
    if report.mean_log_scale >= 0.0:
        return cap
    n = math.log(target) / report.mean_log_scale
    return max(1, min(cap, int(math.ceil(n))))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathLaw:
    """Exact finite law of a path sum: sorted support with merged weights."""

    values: np.ndarray
    probs: np.ndarray
    depth: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        ps = np.asarray(self.probs, dtype=float)
        uniq, inverse = np.unique(vals, return_inverse=True)
        merged = np.bincount(inverse, weights=ps)
        object.__setattr__(self, "values", uniq)
        object.__setattr__(self, "probs", merged)
        if not np.all(merged > 0.0):
            raise ValueError("path probabilities must be positive")
        if abs(merged.sum() - 1.0) > 1e-12:
            raise ValueError("path probabilities must sum to 1")

    def cdf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(self.values, t, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out if out.shape else float(out)

    def scaled(self, factor: float) -> "PathLaw":
        return PathLaw(self.values * factor, self.probs.copy(), self.depth)


def enumerate_paths(
    measure: RandomAffineMeasure, depth: int, which: str
) -> PathLaw:
    """Exact law of the forward or backward partial sum at ``depth``.

    ``which`` is ``"forward"`` or ``"backward"``.  The walk over all
    ``k**depth`` atom paths is refused above :data:`ENUMERATION_CAP`.
    """
    if which not in ("forward", "backward"):
        raise ValueError("which must be 'forward' or 'backward'")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    k = len(measure)
    if k ** depth > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{k}^{depth} paths exceed the cap {ENUMERATION_CAP}"
        )
    ls, ms, ps = measure.scales, measure.shifts, measure.weights

    sums = np.zeros(1)
    prods = np.ones(1)
    weights = np.ones(1)
    for _ in range(depth):
        if which == "forward":
            prods_next = np.multiply.outer(prods, ls).ravel()
            sums = (sums[:, None] + ms[None, :] / (prods[:, None] * ls[None, :])).ravel()
        else:
            sums = (sums[:, None] - ms[None, :] * prods[:, None]).ravel()
            prods_next = np.multiply.outer(prods, ls).ravel()
        prods = prods_next
        weights = np.multiply.outer(weights, ps).ravel()
    return PathLaw(sums, weights, depth)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerpetuityEstimate:
    """Empirical characteristic function and/or CDF of a perpetuity limit."""

    sample_count: int
    depth: int
    charfn_x: np.ndarray | None = None
    charfn_values: np.ndarray | None = None
    charfn_stderr: np.ndarray | None = None
    cdf_t: np.ndarray | None = None
    cdf_values: np.ndarray | None = None
    divergent_regime: bool = False


def estimate_charfn(
    measure: RandomAffineMeasure,
    x_grid,
    sample_count: int,
    depth: int | None = None,
    rng_seed: int = 0,
    allow_divergent: bool = False,
) -> PerpetuityEstimate:
    """Monte Carlo estimate of ``E exp(i x Z)`` for the forward-series limit.

    One common batch of draws serves every grid point, which keeps the
    estimate a smooth function of x.  It is evaluated on the distinct |x| and
    mirrored, so ``estimate(-x) == conj(estimate(x))`` exactly.  ``stderr``
    combines the real and imaginary sample variances: sqrt((var_re + var_im) / n).

    Outside the expansive regime the series need not converge; the call is
    refused unless ``allow_divergent`` is set, in which case the estimate
    carries ``divergent_regime=True``.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    report = classify_regime(measure)
    divergent = report.regime is not Regime.LOG_EXPANSIVE
    if divergent and not allow_divergent:
        raise RegimeMismatch(
            f"forward series needs the expansive regime, got {report.regime.value}; "
            "pass allow_divergent=True to override"
        )
    if depth is None:
        if divergent:
            # no truncation bound exists for a divergent series; deep
            # products would underflow, so the caller must choose
            raise ValueError("explicit depth required with allow_divergent")
        depth = forward_truncation_depth(measure)
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    z = draw_forward(measure, depth, sample_count, rng_seed)

    half, mirror = half_grid(xs)
    values = np.empty(len(half), dtype=complex)
    stderr = np.empty(len(half))
    block = max(1, CHUNK_ELEMS // 2 // sample_count)
    for start in range(0, len(half), block):
        xb = half[start:start + block]
        phases = np.exp(1j * np.multiply.outer(xb, z))
        values[start:start + len(xb)] = phases.mean(axis=1)
        var = phases.real.var(axis=1) + phases.imag.var(axis=1)
        stderr[start:start + len(xb)] = np.sqrt(var / sample_count)
    return PerpetuityEstimate(
        sample_count=sample_count,
        depth=depth,
        charfn_x=xs,
        charfn_values=mirror(values),
        charfn_stderr=mirror(stderr),
        divergent_regime=divergent,
    )


def estimate_cdf(
    measure: RandomAffineMeasure,
    t_grid,
    sample_count: int,
    depth: int | None = None,
    rng_seed: int = 0,
    allow_divergent: bool = False,
) -> PerpetuityEstimate:
    """Empirical CDF of the backward iterate at ``depth`` on ``t_grid``.

    The default depth pushes the expected contraction factor below 1e-12
    (capped at 200).  The expansive regime is refused outright; the
    critical regime only with ``allow_divergent``.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    report = classify_regime(measure)
    if report.regime is Regime.LOG_EXPANSIVE:
        raise RegimeMismatch("backward iterates diverge in the expansive regime")
    divergent = report.regime is not Regime.LOG_CONTRACTIVE
    if divergent and not allow_divergent:
        raise RegimeMismatch(
            "limit law needs the contractive regime; "
            "pass allow_divergent=True to override"
        )
    if depth is None:
        depth = backward_default_depth(report)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    z = np.sort(draw_backward(measure, depth, sample_count, rng_seed))
    cdf = np.searchsorted(z, ts, side="right") / sample_count
    return PerpetuityEstimate(
        sample_count=sample_count,
        depth=depth,
        cdf_t=ts,
        cdf_values=cdf,
        divergent_regime=divergent,
    )


def check_cdf_integral_identity(
    g: ClosedFormFn, phi: PerpetuityEstimate, tol: float
) -> bool:
    """Check ``int g(t) Phi(t) dt == int g(t) dt`` against the estimated CDF.

    Needs the CDF part of ``phi`` and a grid window covering the effective
    support of ``g`` (so the integrand vanishes outside the window).
    """
    if phi.cdf_t is None or phi.cdf_values is None:
        raise ValueError("estimate carries no CDF part")
    lo, hi = g.support()
    ts = phi.cdf_t
    if lo < ts[0] or hi > ts[-1]:
        raise WindowTooSmall(
            f"support [{lo}, {hi}] of g exceeds the CDF grid [{ts[0]}, {ts[-1]}]"
        )
    integral = float(np.trapezoid(g(ts) * phi.cdf_values, ts))
    return abs(integral - g.mass()) <= tol
