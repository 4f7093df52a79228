"""Sampling and exact enumeration of random affine path sums.

The one path sum computed over i.i.d. draws ``(L_1, M_1), (L_2, M_2), ...`` is
the forward series ``sum_{k<=n} M_k / (L_1 ... L_k)``.  It converges a.s. in
the expansive regime, and its limit law drives the spectral solver there.  The
backward iterate ``Z_n = -sum_{i<=n} M_i * (L_1 ... L_{i-1})``, the value at 0
of the n-fold map in reversed draw order, equals the n-fold iterate in law and
converges in distribution in the contractive regime (its limit CDF feeds the
CDF-level iteration).  Term by term it is the forward series of the inverse
maps ``(1/l, -m/l)`` (Vervaat 1979), and it is computed as that.

Samplers are pure functions of (measure, parameters, seed) built on a
counter-based generator keyed by the seed, so batches are reproducible.
Every Monte Carlo route draws its atom paths through :func:`path_chunks`.
Each atom index is one ``Generator.random`` uniform, in row-major order,
located in the normalised cumulative weights.  That is the rule
``Generator.choice`` applies, so the indices equal its indices and the
chunking never changes a draw.  The uniforms and the path sums run through
buffers of ``_BLOCK_ELEMS`` elements, so memory does not grow with the count.

The exact path laws walk the paths through :func:`state_walk`, which merges
equal states; the spectral series terms group them by scale exponents.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormFn
from .errors import EnumerationTooLarge, RegimeMismatch, WindowTooSmall
from .gridfn import affine_step, finite_points, half_grid
from .measure import RandomAffineMeasure, Regime, classify_regime

#: Most walk states times atoms, or scale groups times frequencies, per exact depth.
ENUMERATION_CAP = 10_000_000

#: Array elements per Monte Carlo block (path indices, or samples x frequencies).
CHUNK_ELEMS = 2_000_000

#: Most path indices (samples times depth) one Monte Carlo call may draw.
DRAW_BUDGET = 2**28

#: Elements per sampler buffer: uniforms, gathered indices and path-sum rows.
_BLOCK_ELEMS = 65_536


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator: Philox keyed by ``seed``."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed))


def path_chunks(measure: RandomAffineMeasure, depth: int, count: int, rng: np.random.Generator):
    """``count`` i.i.d. atom paths of length ``depth`` as chunks ``(rows, idx)``
    of sample slices and atom indices; arguments are checked before any draw.

    The indices are those of ``rng.choice(len(measure), size, p=weights)``,
    value for value, stored in the smallest unsigned dtype (``uint8`` up to
    256 atoms).  A one-atom measure draws no uniforms."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if count * depth > DRAW_BUDGET:
        raise ValueError(
            f"{count} samples of depth {depth} exceed the draw budget of {DRAW_BUDGET} indices"
        )
    rows = max(1, CHUNK_ELEMS // depth)
    return (
        (slice(i, min(i + rows, count)),
         _draw_indices(measure.weights, (min(rows, count - i), depth), rng))
        for i in range(0, count, rows)
    )


def _draw_indices(
    weights: np.ndarray, shape: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Atom indices of ``shape`` by inverse transform, as ``Generator.choice``
    draws them: one uniform ``u`` per index in row-major order, and the index
    is the count of ``cdf = cumsum(weights) / cumsum(weights)[-1]`` entries at
    most ``u`` (``searchsorted(side="right")``), taken by comparisons.  The
    uniforms go through one buffer of ``_BLOCK_ELEMS``."""
    idx = np.zeros(shape, dtype=np.min_scalar_type(len(weights) - 1))
    if len(weights) > 1:
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        flat = idx.reshape(-1)
        buf = np.empty(min(_BLOCK_ELEMS, flat.size))
        below = np.empty(len(buf), dtype=bool)
        for start in range(0, flat.size, len(buf)):
            u = rng.random(out=buf[:flat.size - start])
            seg = flat[start:start + len(u)]
            for c in cdf[:-1]:  # cdf[-1] is 1 > u
                seg += np.greater_equal(u, c, out=below[:len(u)])
    return idx


def _row_blocks(idx: np.ndarray):
    """Row slices of ``idx`` of about ``_BLOCK_ELEMS`` elements, each with the
    same two row-major float64 buffers cut to its shape."""
    count, depth = idx.shape
    step = max(1, _BLOCK_ELEMS // depth)
    bufs = np.empty((2, min(step, count), depth))
    for start in range(0, count, step):
        n = min(step, count - start)
        yield slice(start, start + n), bufs[0, :n], bufs[1, :n]


def _gather(values: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = values[idx]`` for contiguous ``idx`` and ``out``, in
    segments of ``_BLOCK_ELEMS``, so ``np.take``'s intp copy of the indices
    stays small when one row is longer than a block."""
    src, dst = idx.reshape(-1), out.reshape(-1)
    for start in range(0, len(src), _BLOCK_ELEMS):
        seg = slice(start, start + _BLOCK_ELEMS)
        np.take(values, src[seg], out=dst[seg], mode="clip")


def _forward_sums(measure: RandomAffineMeasure, idx: np.ndarray) -> np.ndarray:
    """Forward sums ``sum_k M_k / (L_1...L_k)`` of index rows.

    Each row is summed in numpy's pairwise order, so the sums are the bytes of
    ``(ms[idx] / np.cumprod(ls[idx], axis=1)).sum(axis=1)``.  A product past
    the float range is ``inf`` and its term 0, without a warning."""
    sums = np.empty(len(idx))
    for rows, prods, terms in _row_blocks(idx):
        _gather(measure.scales, idx[rows], prods)
        with np.errstate(over="ignore"):
            np.cumprod(prods, axis=1, out=prods)
        _gather(measure.shifts, idx[rows], terms)
        terms /= prods
        sums[rows] = terms.sum(axis=1)
    return sums


def draw_forward(
    measure: RandomAffineMeasure, depth: int, count: int, rng_seed: int
) -> np.ndarray:
    """``count`` draws of the depth-truncated forward series."""
    chunks = path_chunks(measure, depth, count, generator(rng_seed))
    out = np.empty(count)
    for rows, idx in chunks:
        out[rows] = _forward_sums(measure, idx)
    return out


def _inverted(measure: RandomAffineMeasure) -> RandomAffineMeasure:
    """The inverse maps as atoms ``(1/l, -m/l, p)``, in the same order with the
    same weight bytes, so each uniform picks the same atom (``build_measure``
    would sort and renormalise them).  ``ValueError`` if one leaves the float range."""
    atoms = tuple((1.0 / l, -m / l + 0.0, p) for l, m, p in measure.atoms)
    if not np.all(np.isfinite([a[:2] for a in atoms])):
        raise ValueError("an inverse map (1/l, -m/l) leaves the float range")
    return RandomAffineMeasure(atoms)


def draw_backward(
    measure: RandomAffineMeasure, depth: int, count: int, rng_seed: int
) -> np.ndarray:
    """``count`` draws of the depth-n backward iterate Z_n: the forward series
    of the inverted atoms on the same paths.  Term i rounds 2i + 1 times, not
    i - 1, so a draw is within ``3 n eps sum_i |M_i L_1...L_{i-1}|`` of the
    directly summed iterate while the terms are normal floats; powers of 2 with
    dyadic shifts give its value.  An exactly zero draw is +0.0."""
    return draw_forward(_inverted(measure), depth, count, rng_seed)


def forward_truncation_depth(measure: RandomAffineMeasure) -> int:
    """Depth at which the forward tail is below 1e-14, capped at 500.

    With every ``|l| > 1`` the tail after n terms is bounded by
    ``max|m| / (lam_min - 1) * lam_min^{-n}``; otherwise no deterministic
    geometric bound exists and the cap is used.
    """
    lam = float(np.min(np.abs(measure.scales)))
    mmax = float(np.max(np.abs(measure.shifts)))
    if mmax == 0.0:
        return 1
    if lam <= 1.0:
        return 500
    n = math.log(mmax / (1e-14 * (lam - 1.0))) / math.log(lam)
    return max(1, min(500, int(math.ceil(n))))


def backward_default_depth(report) -> int:
    """Depth making the expected contraction factor smaller than 1e-12,
    capped at 200."""
    if report.mean_log_scale >= 0.0:
        return 200
    n = math.log(1e-12) / report.mean_log_scale
    return max(1, min(200, int(math.ceil(n))))


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
        bad = np.count_nonzero(~np.isfinite(vals))
        if bad:
            raise ValueError(f"{bad} of {len(vals)} path sums are not finite")
        uniq, inverse = np.unique(vals, return_inverse=True)
        merged = np.bincount(inverse, weights=ps)
        object.__setattr__(self, "values", uniq)
        object.__setattr__(self, "probs", merged)
        if not np.all(merged > 0.0):
            raise ValueError("path probabilities must be positive")
        if abs(merged.sum() - 1.0) > 1e-12:
            raise ValueError("path probabilities must sum to 1")

    def cdf(self, t) -> np.ndarray:
        """P(sum <= t); ``ValueError`` at NaN.  The running sum of the
        probabilities is capped at 1 and is exactly 1 from the largest
        support point on, whatever its rounding."""
        t = np.asarray(t, dtype=float)
        if np.any(np.isnan(t)):
            raise ValueError("cdf is undefined at NaN")
        cum = np.minimum(np.cumsum(self.probs), 1.0)
        cum[-1] = 1.0
        idx = np.searchsorted(self.values, t, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out if out.shape else float(out)

    def scaled(self, factor: float) -> "PathLaw":
        return PathLaw(self.values * factor, self.probs.copy(), self.depth)


def state_walk(measure: RandomAffineMeasure):
    """Yield the exact law ``(prods, sums, weights)`` of the scale product
    ``L_1...L_n`` and the forward partial sum, n = 1, 2, ...

    Paths that reach the same float pair are merged.  That keeps the law (the
    next depth depends on the pair only) and keeps measures whose products
    collide, dyadic ones in particular, far below ``k**n`` states.  A depth of
    more than :data:`ENUMERATION_CAP` states times atoms is refused before it
    is allocated.
    """
    ls, ms, ps = measure.scales, measure.shifts, measure.weights
    prods, sums, weights = np.ones(1), np.zeros(1), np.ones(1)
    for depth in itertools.count(1):
        if len(prods) * len(ls) > ENUMERATION_CAP:
            raise EnumerationTooLarge(
                f"{len(prods)} path states x {len(ls)} atoms at depth {depth} "
                f"exceed the cap {ENUMERATION_CAP}"
            )
        denom = prods[:, None] * ls[None, :]
        sums = (sums[:, None] + ms[None, :] / denom).ravel()
        prods = denom.ravel()
        weights = (weights[:, None] * ps[None, :]).ravel()
        order = np.lexsort((sums, prods))
        p, s = prods[order], sums[order]
        first = np.ones(len(p), dtype=bool)
        first[1:] = (p[1:] != p[:-1]) | (s[1:] != s[:-1])
        if not first.all():
            prods, sums = p[first], s[first]
            weights = np.bincount(np.cumsum(first) - 1, weights=weights[order])
        yield prods, sums, weights


def enumerate_paths(
    measure: RandomAffineMeasure, depth: int, which: str
) -> PathLaw:
    """Exact law at ``depth`` of the forward series (``which="forward"``) or of
    the backward iterate (``"backward"``), the forward series of the inverted
    atoms.  The merged :func:`state_walk` refuses depths beyond
    :data:`ENUMERATION_CAP`; :class:`PathLaw` refuses a path sum that leaves
    the float range, so the walk's float-range warnings are silenced.
    """
    if which not in ("forward", "backward"):
        raise ValueError("which must be 'forward' or 'backward'")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    walk = state_walk(measure if which == "forward" else _inverted(measure))
    with np.errstate(all="ignore"):
        _, sums, weights = next(itertools.islice(walk, depth - 1, None))
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
    combines the real and imaginary sample variances of each row of phases:
    sqrt((var_re + var_im) / n).

    When the distinct |x| are affine, ``x_k = x_0 + k dx`` within 4 ulps of
    the largest, row k of phases ``exp(i x_k z)`` is row k-1 times
    ``exp(i dx z)``: one complex multiply per draw instead of one complex
    exp, at about ``8k`` ulps of added rounding.  Any other point set takes
    the exp row by row.  A non-finite frequency raises ``ValueError``.

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
    xs = finite_points(x_grid, "x_grid")
    z = draw_forward(measure, depth, sample_count, rng_seed)

    half, mirror = half_grid(xs)
    values = np.empty(len(half), dtype=complex)
    stderr = np.empty(len(half))
    dx = affine_step(half)
    step = None if dx is None else np.exp(1j * (dx * z))
    for k, x in enumerate(half):
        if k and step is not None:
            row *= step
        else:
            row = np.exp(1j * (x * z))
        values[k] = row.mean()
        stderr[k] = np.sqrt((row.real.var() + row.imag.var()) / sample_count)
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
    critical regime only with ``allow_divergent``.  A non-finite grid point
    raises ``ValueError``.
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
    ts = finite_points(t_grid, "t_grid")
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
