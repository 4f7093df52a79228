"""Spectral solver: build the solution transform from the regime series.

The integrable solutions f of

    f(x) = sum_i p_i |l_i| f(l_i x - m_i) + g(x)

are characterized through their transforms.  With the n-step path average

    T_n[h](x) = E[ exp(i x sum_{k<=n} M_k/(L_1...L_k)) * hhat(x/(L_1...L_n)) ]

the transform of any solution satisfies, for every depth N,

    fhat(x) = T_N[f](x) + sum_{n<N} T_n[g](x) + ghat(x),

and letting N grow yields one closed formula per regime:

* contractive (E log|L| < 0):   fhat = sum_n T_n[g] + ghat, and fhat(0) = 0;
* expansive, shifts all zero:   fhat = fhat(0) + sum_n T_n[g] + ghat;
* expansive, nonzero shifts:    fhat = fhat(0) * E exp(i x Z) + sum_n T_n[g]
  + ghat, where Z is the forward-series limit.

``fhat(0)`` is the free mass parameter in the expansive cases.  The
critical regime (E log|L| = 0) has non-unique solution families and the
solver refuses it; the verifier still works there.

Exact evaluation of T_n walks atom paths.  Identical scales make the path
average factor exactly (the phase increments are then independent), which
keeps deep series affordable; otherwise states are merged and the walk is
capped.  Monte Carlo sampling mirrors both for cross-validation.  Every
route yields T_n depth by depth to one summation loop, on |x| only: for
real g, T_n[g](-x) = conj(T_n[g](x)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .closedform import ClosedFormFn, zero_mean_check
from .errors import (
    CriticalRegime,
    EnumerationTooLarge,
    ImaginaryResidueTooLarge,
    MassMustBeZero,
    NonzeroMeanInhomogeneity,
    RegimeMismatch,
    SpectralLeakage,
)
from .gridfn import GridFn, half_grid
from .measure import RandomAffineMeasure, Regime, RegimeReport, classify_regime
from .perpetuity import (
    CHUNK_ELEMS, ENUMERATION_CAP, estimate_charfn, forward_paths, generator, path_chunks,
)


@dataclass(frozen=True)
class ExactStrategy:
    state_cap: int = ENUMERATION_CAP


@dataclass(frozen=True)
class MonteCarloStrategy:
    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")


Strategy = Union[ExactStrategy, MonteCarloStrategy]

EXACT = ExactStrategy()

#: Consecutive sub-threshold terms required before the series is declared done.
_CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class TruncationReport:
    terms_used: int
    last_term_max_abs: float
    converged: bool


@dataclass(frozen=True)
class Spectrum:
    """Complex transform samples on a frequency grid plus the mass parameter."""

    x_grid: np.ndarray
    values: np.ndarray
    mass: float
    truncation: TruncationReport

    def value_at(self, x: float) -> complex:
        idx = int(np.argmin(np.abs(self.x_grid - x)))
        if abs(self.x_grid[idx] - x) > 1e-12 * max(1.0, abs(x)):
            raise ValueError(f"{x} is not a grid frequency")
        return complex(self.values[idx])


def symmetric_grid(x_max: float, points: int) -> np.ndarray:
    """Uniform grid on [-x_max, x_max] with exact mirror pairs and a 0 node."""
    if points % 2 == 0:
        raise ValueError("points must be odd so the grid contains 0")
    half = np.linspace(0.0, x_max, points // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


# ---------------------------------------------------------------------------
# path-average terms
# ---------------------------------------------------------------------------

def _deterministic_scale(measure: RandomAffineMeasure) -> float | None:
    ls = measure.scales
    return float(ls[0]) if np.all(ls == ls[0]) else None


def _shift_charfn(measure: RandomAffineMeasure, u: np.ndarray) -> np.ndarray:
    """E exp(i u M) for the atom shifts, elementwise in u."""
    out = np.zeros(np.shape(u), dtype=complex)
    for _, m, p in measure.atoms:
        out += p * np.exp(1j * m * u)
    return out


def _state_walk(measure, cap: int):
    """Yield the exact joint law of (scale product, phase sum) per depth.

    States with identical float pairs are merged, so measures whose products
    collide (dyadic scales in particular) stay far below the raw atom**n
    count.  Raises EnumerationTooLarge beyond ``cap`` states.
    """
    ls, ms, ps = measure.scales, measure.shifts, measure.weights
    prods = np.ones(1)
    sums = np.zeros(1)
    weights = np.ones(1)
    depth = 0
    while True:
        depth += 1
        denom = prods[:, None] * ls[None, :]
        sums = (sums[:, None] + ms[None, :] / denom).ravel()
        prods = denom.ravel()
        weights = (weights[:, None] * ps[None, :]).ravel()
        key = prods + 1j * sums
        uniq, index, inverse = np.unique(key, return_index=True, return_inverse=True)
        if len(uniq) < len(key):
            prods = prods[index]
            sums = sums[index]
            weights = np.bincount(inverse, weights=weights)
        if len(prods) > cap:
            raise EnumerationTooLarge(
                f"{len(prods)} path states at depth {depth} exceed the cap {cap}"
            )
        yield prods, sums, weights


def _term_from_states(h: ClosedFormFn, xs, prods, sums, weights) -> np.ndarray:
    out = np.zeros(len(xs), dtype=complex)
    block = max(1, 4_000_000 // max(len(xs), 1))
    for start in range(0, len(prods), block):
        p = prods[start:start + block]
        s = sums[start:start + block]
        w = weights[start:start + block]
        phases = np.exp(1j * np.multiply.outer(xs, s))
        hh = h.fourier(np.multiply.outer(xs, 1.0 / p))
        out += (phases * hh) @ w
    return out


def series_term(
    measure: RandomAffineMeasure,
    h: ClosedFormFn,
    x: float,
    n: int,
    strategy: Strategy = EXACT,
) -> complex:
    """The depth-n path average T_n[h](x).

    Exact strategy: closed product when all scales coincide, otherwise a
    merged state walk.  Monte Carlo strategy: plain path sampling.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(strategy, MonteCarloStrategy):
        return series_term_mc(measure, h, x, n, strategy.sample_count, strategy.seed)[0]
    xs = np.atleast_1d(float(x))
    if _deterministic_scale(measure) is None:  # one term, at the last depth only
        states = next(itertools.islice(_state_walk(measure, strategy.state_cap), n - 1, None))
        return complex(_term_from_states(h, xs, *states)[0])
    return complex(next(itertools.islice(_terms(measure, h, xs, strategy, n), n - 1, None))[0])


def series_term_mc(
    measure: RandomAffineMeasure,
    h: ClosedFormFn,
    x: float,
    n: int,
    sample_count: int,
    seed: int = 0,
) -> tuple[complex, float]:
    """Monte Carlo estimate of T_n[h](x) with its standard error."""
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    chunks = path_chunks(measure, n, sample_count, generator(seed))
    sums, prods = np.empty((2, sample_count))
    for rows, idx in chunks:
        sums[rows], prods[rows] = forward_paths(measure, idx)
    vals = np.exp(1j * x * sums) * h.fourier(x / prods)
    est = complex(vals.mean())
    stderr = math.sqrt((vals.real.var() + vals.imag.var()) / sample_count)
    return est, stderr


# ---------------------------------------------------------------------------
# series summation
# ---------------------------------------------------------------------------

def _terms_shared(measure, h, xs, l0):
    """T_n[h] on ``xs``, n = 1, 2, ..., for the single scale ``l0``."""
    cumulative = np.ones(len(xs), dtype=complex)
    pw = 1.0
    while True:
        pw *= l0
        cumulative *= _shift_charfn(measure, xs / pw)
        yield cumulative * h.fourier(xs / pw)


def _terms_mc(measure, h, xs, n_max, sample_count, seed):
    """Monte Carlo estimates of T_n[h] on ``xs`` for n = 1 .. n_max.

    Every path is drawn before the first depth is evaluated, so no estimate
    depends on where the caller stops, and the running scale product and
    phase sum of each sample equal ``np.cumprod`` / ``np.cumsum`` bit for
    bit.  Indices are stored depth-major in the smallest integer type.
    """
    ls, ms = measure.scales, measure.shifts
    small = np.min_scalar_type(len(ls) - 1)
    chunks = [  # (indices, running product, running phase sum)
        (np.ascontiguousarray(idx.T, dtype=small), np.ones(len(idx)), np.zeros(len(idx)))
        for _, idx in path_chunks(measure, n_max, sample_count, generator(seed))
    ]
    for n in range(n_max):
        term = np.zeros(len(xs), dtype=complex)
        for idx, p, s in chunks:
            p *= ls[idx[n]]
            s += ms[idx[n]] / p
            xblock = max(1, CHUNK_ELEMS // len(p))
            for start in range(0, len(xs), xblock):
                xb = xs[start:start + xblock]
                phases = np.exp(1j * np.multiply.outer(xb, s))
                hh = h.fourier(np.multiply.outer(xb, 1.0 / p))
                term[start:start + len(xb)] += (phases * hh).sum(axis=1)
        yield term / sample_count


def _terms(measure, h, xs, strategy, n_max):
    """The path averages T_1[h], T_2[h], ... on ``xs``, one array per depth."""
    if isinstance(strategy, MonteCarloStrategy):
        return _terms_mc(measure, h, xs, n_max, strategy.sample_count, strategy.seed)
    l0 = _deterministic_scale(measure)
    if l0 is not None:
        return _terms_shared(measure, h, xs, l0)
    return (_term_from_states(h, xs, *s) for s in _state_walk(measure, strategy.state_cap))


def _sum_terms(terms, size, eps, n_max):
    total = np.zeros(size, dtype=complex)
    small_run = 0
    terms_used = 0
    last_max = math.inf
    for terms_used, term in zip(range(1, n_max + 1), terms):
        total += term
        last_max = float(np.max(np.abs(term))) if size else 0.0
        small_run = small_run + 1 if last_max < eps else 0
        if small_run >= _CONSECUTIVE_SMALL:
            return total, TruncationReport(terms_used, last_max, True)
    return total, TruncationReport(terms_used, last_max, False)


def sum_series_grid(
    measure: RandomAffineMeasure,
    g: ClosedFormFn,
    x_grid,
    strategy: Strategy = EXACT,
    eps: float = 1e-10,
    n_max: int = 60,
) -> tuple[np.ndarray, TruncationReport]:
    """Sum the path-average series over a frequency grid.

    Every route (shared-scale product, merged state walk, Monte Carlo)
    feeds one stopping rule: terms are added until the grid maximum of
    |T_n[g]| stays below ``eps`` for three consecutive depths (robust
    against oscillatory terms), or ``n_max`` is reached, which is flagged
    as non-convergence in the report rather than raised.

    The terms are evaluated once per distinct ``|x|``; since ``g`` is real,
    ``T_n[g](-x) = conj(T_n[g](x))`` and the negative frequencies are
    filled in by conjugation.  Monte Carlo draws every path before the
    first term, so stopping early changes how many depths are computed,
    never an estimate.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    half, mirror = half_grid(xs)
    terms = _terms(measure, g, half, strategy, n_max)
    total, report = _sum_terms(terms, len(half), eps, n_max)
    return mirror(total), report


def sum_series(
    measure: RandomAffineMeasure,
    g: ClosedFormFn,
    x: float,
    strategy: Strategy = EXACT,
    eps: float = 1e-10,
    n_max: int = 60,
) -> tuple[complex, TruncationReport]:
    """Scalar convenience wrapper around :func:`sum_series_grid`."""
    report = classify_regime(measure)
    if report.regime is Regime.CRITICAL:
        raise CriticalRegime("series summation is undefined in the critical regime")
    values, trunc = sum_series_grid(measure, g, [x], strategy, eps, n_max)
    return complex(values[0]), trunc


# ---------------------------------------------------------------------------
# forward-limit characteristic function, exact flavour
# ---------------------------------------------------------------------------

def forward_charfn_product(
    measure: RandomAffineMeasure, x_grid, tol: float = 1e-15, max_factors: int = 2000
) -> np.ndarray:
    """E exp(i x Z) for the forward-series limit, when all scales coincide.

    Identical scales make the series increments independent, so the
    characteristic function is the product of the shift characteristic
    function along the geometric argument sequence; the tail of the product
    is cut once its deviation from 1 is below ``tol``.
    """
    l0 = _deterministic_scale(measure)
    if l0 is None or abs(l0) <= 1.0:
        raise EnumerationTooLarge(
            "exact forward limit needs a single scale of modulus > 1; "
            "use the Monte Carlo strategy instead"
        )
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    out = np.ones(len(xs), dtype=complex)
    mmax = float(np.max(np.abs(measure.shifts)))
    if mmax == 0.0:
        return out
    xmax = float(np.max(np.abs(xs))) if len(xs) else 0.0
    pw = 1.0
    for _ in range(max_factors):
        pw *= l0
        out *= _shift_charfn(measure, xs / pw)
        if xmax * mmax / (abs(pw) * (abs(l0) - 1.0)) < tol:
            break
    return out


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_spectrum(
    measure: RandomAffineMeasure,
    g: ClosedFormFn,
    mass: float,
    x_grid,
    strategy: Strategy = EXACT,
    *,
    eps: float = 1e-10,
    n_max: int = 60,
    charfn_depth: int | None = None,
    allow_unverified: bool = False,
    regime_report: RegimeReport | None = None,
) -> Spectrum:
    """Assemble the solution transform on ``x_grid`` for the given regime.

    ``mass`` is the free value of the transform at 0.  It must be 0 in the
    contractive regime (enforced); in the expansive regime with nonzero
    shifts the forward-limit factor comes from the exact product when the
    scale is deterministic (exact strategy) or from Monte Carlo estimation.

    Expansive measures with mixed scales lack a finite sufficient check for
    the forward series; they are refused unless ``allow_unverified`` is set.
    """
    report = regime_report or classify_regime(measure)
    if not zero_mean_check(g):
        raise NonzeroMeanInhomogeneity(
            f"g integrates to {g.mass()!r}; a solvable forcing term needs mass 0"
        )
    if report.regime is Regime.CRITICAL:
        raise CriticalRegime(
            "zero log-scale mean admits whole families of solutions; "
            "the solver refuses, the verifier still applies"
        )

    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    series, trunc = sum_series_grid(measure, g, xs, strategy, eps, n_max)
    ghat = g.fourier(xs)

    if report.regime is Regime.LOG_CONTRACTIVE:
        if mass != 0.0:
            raise MassMustBeZero(
                "contractive regime forces the solution mass to 0"
            )
        values = series + ghat
    elif report.shift_degenerate:
        values = mass + series + ghat
    else:
        if not report.forward_series_condition and not allow_unverified:
            raise RegimeMismatch(
                "expansive regime with a common fixed point: the forward "
                "series is not known to converge; pass allow_unverified=True"
            )
        if isinstance(strategy, MonteCarloStrategy):
            est = estimate_charfn(
                measure, xs, strategy.sample_count,
                depth=charfn_depth, rng_seed=strategy.seed,
            )
            factor = est.charfn_values
        else:
            factor = forward_charfn_product(measure, xs)
        values = mass * factor + series + ghat

    return Spectrum(x_grid=xs, values=values, mass=mass, truncation=trunc)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def _check_inversion_grids(xs: np.ndarray, ts: np.ndarray):
    if len(xs) < 2 or len(ts) < 2:
        raise ValueError("inversion needs at least two nodes per grid")
    span = xs[-1] - xs[0]
    if abs(xs[0] + xs[-1]) > 1e-9 * span:
        raise ValueError("frequency grid must be symmetric about 0")
    dx = span / (len(xs) - 1)
    if np.max(np.abs(np.diff(xs) - dx)) > 1e-9 * dx:
        raise ValueError("frequency grid must be uniform")
    dt = (ts[-1] - ts[0]) / (len(ts) - 1)
    if dt <= 0 or np.max(np.abs(np.diff(ts) - dt)) > 1e-9 * dt:
        raise ValueError("output grid must be uniform ascending")
    return dx, dt


def _chirp_z(values_w, x0, dx, t0, dt, m):
    """``sum_k values_w[k] exp(-i t_j x_k)`` for ``x_k = x0 + k dx`` and
    ``t_j = t0 + j dt``, j < m, as one Bluestein convolution.

    ``j k = (j^2 + k^2 - (j - k)^2) / 2`` turns the sum into a convolution
    of two chirps, evaluated with three FFTs of a power-of-two length.
    """
    n = len(values_w)
    a = dx * dt
    k = np.arange(n)
    j = np.arange(m)
    lag = np.arange(1 - n, m)
    size = 1 << (n + m - 2).bit_length()
    y = values_w * np.exp(-1j * (t0 * (x0 + k * dx) + 0.5 * a * k * k))
    chirp = np.exp(0.5j * a * lag * lag)
    conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(chirp, size))[n - 1:n - 1 + m]
    return conv * np.exp(-1j * (x0 * dt * j + 0.5 * a * j * j))


def invert_spectrum(
    spec: Spectrum,
    t_grid,
    *,
    check_leakage: bool = True,
) -> GridFn:
    """Trapezoid inverse transform ``f(t) = (1/2 pi) int exp(-i t x) fhat``.

    The frequency grid must be symmetric and uniform and, unless
    ``check_leakage`` is disabled, carry edge magnitudes below 1e-3 of the
    peak so the cut tail is negligible.  The imaginary part left over after
    inversion must stay below 1e-3 of the recovered L1 scale.

    The trapezoid sum between the two uniform grids is a chirp-z transform,
    evaluated with FFTs in O((n + m) log(n + m)) for n frequencies and m
    output nodes.
    """
    xs = np.asarray(spec.x_grid, dtype=float)
    vals = np.asarray(spec.values, dtype=complex)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    dx, dt = _check_inversion_grids(xs, ts)

    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return GridFn(ts[0], ts[-1], dt, np.zeros(len(ts)), 0.0, 0.0)
    edge = max(abs(vals[0]), abs(vals[-1]))
    if check_leakage and edge >= 1e-3 * peak:
        raise SpectralLeakage(
            f"edge magnitude {edge:.3e} vs peak {peak:.3e}: widen the frequency window"
        )

    weights = np.full(len(xs), dx)
    weights[0] = weights[-1] = 0.5 * dx
    values_w = vals * weights / (2.0 * math.pi)

    raw = _chirp_z(values_w, xs[0], dx, ts[0], dt, len(ts))

    real = raw.real
    residue = float(np.max(np.abs(raw.imag)))
    l1_scale = float(np.trapezoid(np.abs(real), dx=dt))
    if l1_scale > 0.0 and residue >= 1e-3 * l1_scale:
        raise ImaginaryResidueTooLarge(
            f"imaginary residue {residue:.3e} vs L1 scale {l1_scale:.3e}"
        )
    return GridFn(ts[0], ts[-1], dt, real, 0.0, 0.0)
