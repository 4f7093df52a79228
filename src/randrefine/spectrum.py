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

Exact evaluation of T_n has one source, :func:`exact_terms`.  It groups
the paths by how often each distinct scale was drawn, which is exact since
the next phase increment depends on a path only through its scale product;
one scale makes one group.  Which paths meet in which group depends only
on the number of distinct scales and the depth, so that group plan is
kept across calls, within a fixed memory bound, and a depth then does only
the work that depends on values.  The Monte Carlo route, :func:`_terms_mc`,
estimates the same averages from drawn paths.  Every route yields the map
``h -> T_n[h]`` depth by depth to one summation loop, on |x| only: for real
g, T_n[g](-x) = conj(T_n[g](x)).

Both routes evaluate each transform and phase once per distinct argument
and gather the result to the groups or paths that share it, so every term
keeps the bytes of one evaluation per group or path: ``hhat(xs / P)`` once
per distinct product P, with a depth's rows copied from the depth before
where P recurs (only one depth of rows is kept), and on the Monte Carlo
route ``exp(i xs S)`` once per distinct partial sum S.

When every scale has ``|l| > 1`` and g has mass 0, the tail from depth n on
is ``E[exp(i x S_n) rhat(x / P_n)]``, where r is the mass-0 solution of the
identity for g.  The moments of r follow exactly from the identity, so at
the first depth where every ``|x / P_n| <= y0`` both routes add the whole
tail as one term, with r's Taylor polynomial, certified to within
``1e-16 ||g||_1`` at ``|y| <= y0``, in place of ``hhat``, and stop there.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
import threading
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
from .gridfn import GridFn, finite_points, half_grid
from .measure import RandomAffineMeasure, Regime, RegimeReport, classify_regime
from .perpetuity import CHUNK_ELEMS, ENUMERATION_CAP, estimate_charfn, generator, path_chunks


@dataclass(frozen=True)
class ExactStrategy:
    """Exact path averages, capped at :data:`randrefine.perpetuity.ENUMERATION_CAP`."""


@dataclass(frozen=True)
class MonteCarloStrategy:
    """Sampled path averages: ``sample_count`` paths (an integer >= 1) from
    the generator keyed by ``seed`` (an integer >= 0); numpy integers are
    accepted, ``bool`` is not.  A bad field raises ``ValueError`` naming it."""

    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("sample_count", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


Strategy = Union[ExactStrategy, MonteCarloStrategy]

EXACT = ExactStrategy()

#: Consecutive sub-threshold terms required before the series is declared done.
_CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class TruncationReport:
    """How the series was cut.  An open series stops after three terms
    below ``eps`` (``converged``) or at ``n_max``; ``tail_bound`` is None.
    A closed series counts its whole tail as its last term: ``tail_bound``
    is that term's certified error, and it is ``converged`` when the bound
    is at most ``eps``."""

    terms_used: int
    last_term_max_abs: float
    converged: bool
    tail_bound: float | None = None


@dataclass(frozen=True)
class Spectrum:
    """Complex transform samples on a frequency grid plus the mass parameter."""

    x_grid: np.ndarray
    values: np.ndarray
    mass: float
    truncation: TruncationReport

    def value_at(self, x: float) -> complex:
        idx = int(np.argmin(np.abs(self.x_grid - x)))
        if not math.isfinite(x) or abs(self.x_grid[idx] - x) > 1e-12 * max(1.0, abs(x)):
            raise ValueError(f"{x} is not a grid frequency")
        return complex(self.values[idx])


# ---------------------------------------------------------------------------
# path-average terms
# ---------------------------------------------------------------------------

def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct floats of ``values``, as ``np.unique`` gives them,
    without its first-call import of ``numpy.ma``."""
    return np.array(sorted(set(values.tolist())))


def _lex_ranks(steps: np.ndarray, depth: int) -> np.ndarray:
    """Each row's rank among the exponent vectors of sum ``depth`` in
    ascending lexicographic order, the row order of ``np.unique(axis=0)``.

    Entry k, with ``r`` of the sum left for it and ``m`` entries after it,
    is preceded by ``C(r + m, m) - C(r - c_k + m, m)`` vectors that agree
    before k and are smaller at k.  The ranks stay below the group count,
    so they fit int64 for any number of scales, where a positional code
    ``sum_k c_k (depth + 1)^k`` overflows from about 40 scales."""
    d = steps.shape[1]
    ways = [np.ones(depth + 1, dtype=np.int64)]  # ways[m][r] = C(r + m, m)
    for _ in range(d - 1):
        ways.append(np.cumsum(ways[-1]))
    left = depth - np.cumsum(steps, axis=1) + steps
    ranks = np.zeros(len(steps), dtype=np.int64)
    for k in range(d - 1):
        count = ways[d - 1 - k]
        ranks += count[left[:, k]] - count[left[:, k] - steps[:, k]]
    return ranks


#: The group plans of :func:`_group_plan` by (number of scales, depth).
_PLANS: dict[tuple[int, int], tuple] = {}
#: Bytes of arrays, headers included, that :data:`_PLANS` may keep.
_PLAN_CACHE_BYTES = 32 << 20
_plan_bytes = 0
_plan_lock = threading.Lock()


def _group_plan(keys: np.ndarray, depth: int):
    """The group plan ``(target, first, keys)`` of one lattice depth, from
    the exponent rows ``keys`` of the depth before.

    The steps ``c + e_k`` run scale-major; ``target`` keys each step's
    group by the integer rank of its exponent row from :func:`_lex_ranks`,
    so the groups sort as the rows do; ``first`` picks each group's first
    step, whose product the group keeps; ``keys`` are the depth's own rows.
    A plan depends only on the number of scales d and the depth, so it is
    kept in :data:`_PLANS`, read-only, while the kept plans hold at most
    ``_PLAN_CACHE_BYTES``; a plan past that is built for its walk only."""
    global _plan_bytes
    d = keys.shape[1]
    plan = _PLANS.get((d, depth))
    if plan is None:
        steps = (keys[None] + np.eye(d, dtype=int)[:, None]).reshape(-1, d)
        target = _lex_ranks(steps, depth)
        first = np.unique(target, return_index=True)[1]
        plan = target, first, steps[first]
        size = sum(map(sys.getsizeof, plan))
        with _plan_lock:
            if (d, depth) not in _PLANS and _plan_bytes + size <= _PLAN_CACHE_BYTES:
                for a in plan:
                    a.flags.writeable = False
                _PLANS[d, depth] = plan
                _plan_bytes += size
    return plan


#: Values in one array pass of :func:`_lattice` when more than one scale fits.
_LATTICE_BLOCK = 1 << 12


def _lattice(measure: RandomAffineMeasure, xs: np.ndarray):
    """Per depth n = 1, 2, ...: the products ``P_c`` and phase averages
    ``Phi_c = E[exp(i xs S_n); c]`` of the paths grouped by scale exponents c.
    The next increment ``M / (P_c L)`` depends on c only, so ``Phi_{c+e_k}``
    sums ``p_i exp(i m_i xs / P_{c+e_k}) Phi_c`` over the atoms of scale
    ``s_k``: exact, and one group for one scale.

    Which steps meet in which group comes from :func:`_group_plan`, so a
    depth does only the work that depends on values: the products,
    ``u = xs / P``, one ``exp`` per atom, the phase products, and each
    scale's steps added onto their groups in scale order.  The steps of
    several scales share one array pass (the j-th atom of each scale at
    once), in blocks of whole scales of at most ``_LATTICE_BLOCK`` values
    where one scale fits.  Depths over the cap are refused before their
    plan is built."""
    scales = _distinct(measure.scales)
    shifts = [[(m, p) for l, m, p in measure.atoms if l == s] for s in scales]
    d = len(scales)
    # the j-th atom (1j m, p) of every scale as complex (d, 1, 1) columns; a
    # scale with fewer atoms gets (0, 0), whose term adds an exact +0 to a
    # phase that holds no -0 after its first addition, so no byte moves
    slots = [
        np.array([[1j * a[j][0], a[j][1]] if j < len(a) else [0j, 0j]
                  for a in shifts]).T[..., None, None]
        for j in range(max(map(len, shifts)))
    ]
    keys, prods, phis = np.zeros((1, d), int), np.ones(1), np.ones((1, len(xs)), complex)
    for depth in itertools.count(1):
        groups = math.comb(depth + d - 1, d - 1)
        if groups * max(len(xs), 1) > ENUMERATION_CAP:
            raise EnumerationTooLarge(
                f"{groups} scale groups x {len(xs)} frequencies at depth {depth} exceed the "
                f"cap {ENUMERATION_CAP}; use fewer x_points, a larger eps or --strategy mc")
        target, first, keys = _group_plan(keys, depth)
        prods = np.multiply.outer(scales, prods).ravel()[first]
        u = xs / prods[:, None]
        # -0 + v is v for every float v, so each group adds its steps onto
        # -0 in scale order: its first step is copied, the rest are added
        new = np.full((groups, len(xs)), complex(-0.0, -0.0))
        rows = len(phis)
        block = max(1, _LATTICE_BLOCK // max(rows * len(xs), 1))
        for k in range(0, d, block):
            ks = slice(k, k + block)
            t = target[k * rows:(k + block) * rows].reshape(-1, rows)
            ut = u[t]
            phase = np.zeros(ut.shape, dtype=complex)
            for jm, p in slots:
                phase += p[ks] * np.exp(jm[ks] * ut)
            # phis first: numpy's complex multiply (FMA) is not symmetric
            np.multiply(phis, phase, out=phase)
            for t_k, phase_k in zip(t, phase):
                new[t_k] += phase_k
        phis = new
        yield prods, phis


def exact_terms(measure: RandomAffineMeasure, xs: np.ndarray):
    """Per depth n = 1, 2, ...: the map ``h -> T_n[h] = sum_c hhat(xs / P_c)
    Phi_c`` over the groups of :func:`_lattice`, summed in group order.

    ``hhat(xs / P)`` is evaluated once per distinct product P: a row whose
    ``h`` and P equal those of the latest term evaluated is copied from it,
    and the rest come from one ``h.fourier`` call.  Only that latest term's
    rows are kept, so the memory grows by at most one depth of rows."""
    latest = None  # (h, distinct products, their hhat rows)
    for prods, phis in _lattice(measure, xs):
        u, inv = np.unique(prods, return_inverse=True)

        def term(h, u=u, inv=inv, phis=phis):
            nonlocal latest
            if latest is not None and latest[0] is h:
                _, v, old = latest
                at = np.minimum(np.searchsorted(v, u), len(v) - 1)
                rows = old[at]  # right where the product recurs
                new = v[at] != u
                if new.any():
                    rows[new] = h.fourier(xs / u[new, None])
            else:
                rows = h.fourier(xs / u[:, None])
            latest = (h, u, rows)
            # a cumulative sum adds the rows in order for every grid size
            acc = phis * rows[inv]
            return np.cumsum(acc, axis=0, out=acc)[-1].copy()
        yield term


# ---------------------------------------------------------------------------
# series summation
# ---------------------------------------------------------------------------

#: An expansive series closes at the first depth n with ``max|x| <= _MOMENT_Y0 min|l|^n``.
_MOMENT_Y0 = 0.25
#: The closing term's certified remainder at ``|y| = _MOMENT_Y0``, relative to ``||g||_1``.
_MOMENT_TOL = 1e-16
#: The highest Taylor order the closing term may use.
_MOMENT_ORDER_MAX = 40
#: Largest Taylor term at ``|y| = _MOMENT_Y0``, relative to ``||g||_1``: a rounding guard.
_MOMENT_TERM_GUARD = 4.0


@dataclass(frozen=True)
class _Closure:
    """The tail of a series from ``depth`` on, as one term: each group or
    path adds ``rhat(x / P)`` for the mass-0 solution r of the identity for
    g, through :meth:`fourier`, r's Taylor polynomial
    ``exp(i y c) sum_k coefs[k] y^k`` about the centre c of g.  ``tail``
    bounds the term's error, summed over the law of the paths."""

    depth: int
    centre: float
    coefs: np.ndarray
    tail: float

    def fourier(self, y):
        return np.exp(1j * self.centre * y) * np.polyval(self.coefs[::-1], y)


def _closure(measure, g, xs, n_max):
    """The closing term of the series of g on the ascending ``xs >= 0``, or None.

    It needs every ``|l| >= lam > 1`` and a g that passes
    :func:`zero_mean_check`.  Its depth n0 is the first with
    ``max xs <= _MOMENT_Y0 lam^n0``, so every ``|x / P_n0| <= y0``.

    The moments of r about the centre c of g follow from the identity, with
    the shifts ``M' = M + c (1 - L)`` about c and ``mu_0 = m_0(g) = 0``:
    ``mu_k (1 - E L^-k) = sum_{j<k} C(k, j) E[M'^(k-j) L^-k] mu_j + m_k(g)``.
    Differentiate ``rhat(y) exp(-i y c) = sum_n E[exp(i y W_n) ghat_c(y / P_n)]``
    term by term, with ``|W_n| = |S_n + c/P_n - c| <= s = max|m| / (lam - 1)
    + |c| (1 + 1/lam)``, ``|ghat_c^(k)| <= A_k`` (the absolute moments about
    c), ``|ghat_c(z)| <= A_1 |z|`` and ``sum_n E|P_n|^-k = G_k = 1 / (1 -
    E|L|^-k)``: the order-K remainder is at most ``B_K |y|^(K+1)`` for
    ``|y| <= y0``, with ``B_K (K+1)! = sum_{j<=K} C(K+1, j) s^j A_{K+1-j}
    G_{K+1-j} + s^(K+1) y0 A_1 G_1``.  K is the least order with
    ``B_K y0^(K+1) <= _MOMENT_TOL ||g||_1``, and the tail bound is
    ``B_K max(xs)^(K+1) E|P_n0|^-(K+1)``.

    There is none when n0 exceeds ``n_max``, when no K up to
    ``_MOMENT_ORDER_MAX`` qualifies, when a Taylor term at y0 exceeds
    ``_MOMENT_TERM_GUARD ||g||_1``, or when ``_MOMENT_TOL ||g||_1`` is below
    the smallest normal float (the bounds would underflow and pass)."""
    ls, ms, ps = measure.scales, measure.shifts, measure.weights
    lam, l1 = float(np.min(np.abs(ls))), g.l1_upper_bound()
    if not (lam > 1.0 and _MOMENT_TOL * l1 >= np.finfo(float).tiny and zero_mean_check(g)):
        return None
    xmax = float(xs[-1]) if len(xs) else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan: no depth
        steps = np.log(xmax / np.float64(_MOMENT_Y0)) / math.log(lam)
    if not steps <= n_max:
        return None
    depth = int(steps) - 1 if steps > 2 else 1  # then step past rounding
    while lam ** depth * _MOMENT_Y0 < xmax:
        depth += 1
    if depth > n_max:
        return None
    c = g.centre()
    k = np.arange(_MOMENT_ORDER_MAX + 2)
    fact = np.array([math.factorial(v) for v in k], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # absurd parameters give inf or nan
        s = np.max(np.abs(ms)) / (lam - 1.0) + abs(c) * (1.0 + 1.0 / lam)
        ag = np.zeros(len(k))  # A_k G_k / k!
        ag[1:] = g.abs_moment_bounds(len(k), c)[1:] / fact[1:]
        ag[1:] /= 1.0 - ps @ np.abs(ls)[:, None] ** -k[1:]
        sk = s ** k / fact
        # B_K for K <= _MOMENT_ORDER_MAX
        bound = np.convolve(sk, ag)[1:len(k)] + sk[1:] * _MOMENT_Y0 * ag[1]
        small = np.flatnonzero(bound * _MOMENT_Y0 ** k[1:] <= _MOMENT_TOL * l1)
        if not len(small):
            return None
        order = small[0]
        kk = k[:order + 1]
        # w[k, q] = E[M'^q L^-k] / q!; nu holds m_k(g) / k! until it holds mu_k / k!
        w = (ps * ls ** -kk[:, None]) @ ((ms + c * (1.0 - ls)) ** kk[:, None] / fact[kk, None]).T
        nu = g.moments(order + 1, c) / fact[kk]
        nu[0] = 0.0
        for n in kk[1:]:
            nu[n] = (w[n, n:0:-1] @ nu[:n] + nu[n]) / (1.0 - w[n, 0])
        coefs = np.array([1, 1j, -1, -1j])[kk % 4] * nu
        if not np.all(np.abs(coefs) * _MOMENT_Y0 ** kk <= _MOMENT_TERM_GUARD * l1):
            return None
        weight = ps @ (lam / np.abs(ls)) ** (order + 1)  # E (lam / |L|)^(K+1)
        tail = bound[order] * (xmax / lam ** depth) ** (order + 1) * weight ** depth
    return _Closure(depth, c, coefs, float(tail))


def _terms_mc(measure, xs, n_max, sample_count, seed):
    """Per depth n = 1 .. n_max: the map ``h -> `` Monte Carlo estimate of
    T_n[h] on ``xs``, as :func:`exact_terms` yields the exact one.

    Every path is drawn before the first depth is evaluated, so no estimate
    depends on where the caller stops, and the running scale product and
    phase sum of each sample equal ``np.cumprod`` / ``np.cumsum`` bit for
    bit.  Indices are stored depth-major, in the smallest unsigned dtype
    :func:`path_chunks` draws them in.

    ``hhat`` is evaluated once per distinct product, and the phase
    ``exp(i xs S_n)`` once per distinct partial sum, and both are gathered
    to the paths: the same floats through the same elementwise ufuncs, so
    every term is byte-identical to one evaluation per path.  The
    frequencies are blocked so a block holds about ``CHUNK_ELEMS`` phases.
    """
    ls, ms = measure.scales, measure.shifts
    chunks = [  # (indices, running product, running phase sum)
        (np.ascontiguousarray(idx.T), np.ones(len(idx)), np.zeros(len(idx)))
        for _, idx in path_chunks(measure, n_max, sample_count, generator(seed))
    ]
    for n in range(n_max):
        states = []
        for idx, p, s in chunks:
            p *= ls[idx[n]]
            s += ms[idx[n]] / p
            states.append((*np.unique(p, return_inverse=True), *np.unique(s, return_inverse=True)))

        def term(h, states=states):
            out = np.zeros(len(xs), dtype=complex)
            for u, inv, su, sinv in states:
                xblock = max(1, CHUNK_ELEMS // len(inv))
                for start in range(0, len(xs), xblock):
                    xb = xs[start:start + xblock]
                    phases = np.take(np.exp(1j * np.multiply.outer(xb, su)), sinv, axis=1)
                    hh = h.fourier(np.multiply.outer(xb, 1.0 / u))[:, inv]
                    out[start:start + len(xb)] += (phases * hh).sum(axis=1)
            return out / sample_count
        yield term


def sum_series_grid(
    measure: RandomAffineMeasure,
    g: ClosedFormFn,
    x_grid,
    strategy: Strategy = EXACT,
    eps: float = 1e-10,
    n_max: int = 60,
) -> tuple[np.ndarray, TruncationReport]:
    """Sum the path-average series over a frequency grid.

    Both routes (the exact scale-exponent lattice, Monte Carlo) feed one
    loop.  When every ``|l| > 1`` and g has mass 0, the series closes: at
    the first depth n0 <= ``n_max`` with ``max|x| <= y0 min|l|^n0`` (y0 =
    1/4) the whole tail is added as one certified term, and Monte Carlo
    draws its paths only n0 deep.  Otherwise terms are added until the grid
    maximum of |T_n[g]| stays below ``eps`` for three consecutive depths
    (robust against oscillatory terms), or ``n_max`` is reached, which is
    flagged as non-convergence in the report rather than raised.

    The terms are evaluated once per distinct ``|x|``; since ``g`` is real,
    ``T_n[g](-x) = conj(T_n[g](x))`` and the negative frequencies are
    filled in by conjugation.  Monte Carlo draws every path before the
    first term, so stopping early changes how many depths are computed,
    never an estimate.

    Raises :class:`CriticalRegime` for a critical measure, where the
    series is undefined, and ``ValueError`` for a non-finite frequency,
    ``n_max < 1``, or an ``eps`` that is not finite and ``>= 0``.
    """
    if classify_regime(measure).regime is Regime.CRITICAL:
        raise CriticalRegime("series summation is undefined in the critical regime")
    return _sum_series(measure, g, finite_points(x_grid, "x_grid"), strategy, eps, n_max)


def _sum_series(measure, g, xs, strategy, eps, n_max):
    """:func:`sum_series_grid` on the finite ``xs`` of a non-critical measure."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    half, mirror = half_grid(xs)
    closure = _closure(measure, g, half, n_max)
    depth = n_max if closure is None else closure.depth
    if isinstance(strategy, MonteCarloStrategy):
        terms = _terms_mc(measure, half, depth, strategy.sample_count, strategy.seed)
    else:
        terms = exact_terms(measure, half)
    hs = itertools.repeat(g) if closure is None else [g] * (depth - 1) + [closure]
    total = np.zeros(len(half), dtype=complex)
    small_run = 0
    for terms_used, term, h in zip(range(1, depth + 1), terms, hs):
        value = term(h)
        total += value
        last_max = float(np.max(np.abs(value))) if len(half) else 0.0
        small_run = small_run + 1 if last_max < eps else 0
        if closure is None and small_run >= _CONSECUTIVE_SMALL:
            return mirror(total), TruncationReport(terms_used, last_max, True)
    tail = None if closure is None else closure.tail
    return mirror(total), TruncationReport(terms_used, last_max, tail is not None and tail <= eps, tail)


# ---------------------------------------------------------------------------
# forward-limit characteristic function, exact flavour
# ---------------------------------------------------------------------------

def forward_charfn_product(measure: RandomAffineMeasure, x_grid) -> np.ndarray:
    """E exp(i x Z) for the forward-series limit, when all scales coincide.

    Identical scales make the series increments independent, so the
    characteristic function is the product of the shift characteristic
    function along the geometric argument sequence; the tail of the product
    is cut once its deviation from 1 is below 1e-15, and after 2000 factors
    at most.  A non-finite frequency raises ``ValueError``.
    """
    xs = finite_points(x_grid, "x_grid")
    scales = _distinct(measure.scales)
    if len(scales) > 1 or abs(scales[0]) <= 1.0:
        raise EnumerationTooLarge(
            "exact forward limit needs a single scale of modulus > 1; "
            "use the Monte Carlo strategy instead"
        )
    out = np.ones(len(xs), dtype=complex)
    mmax = float(np.max(np.abs(measure.shifts)))
    if mmax == 0.0:
        return out
    xmax = float(np.max(np.abs(xs))) if len(xs) else 0.0
    for _, (prods, phis) in zip(range(2000), _lattice(measure, xs)):
        out = phis[0]
        if xmax * mmax / (abs(prods[0]) * (abs(scales[0]) - 1.0)) < 1e-15:
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
    regime_report: RegimeReport | None = None,
) -> Spectrum:
    """Assemble the solution transform on ``x_grid`` for the given regime.

    ``mass`` is the free value of the transform at 0: it must be finite
    and 0 in the contractive regime (enforced).  A non-finite mass or
    frequency raises ``ValueError`` before any work.  In the expansive
    regime with nonzero shifts and mass the forward-limit factor comes from
    the exact product when the scale is deterministic (exact strategy) or
    from Monte Carlo estimation at :func:`estimate_charfn`'s default depth.
    If every map fixes one point, the forward limit is the point mass there,
    whose transform does not decay, so a nonzero mass is refused.
    """
    if not math.isfinite(mass):
        raise ValueError(f"mass must be finite, got {mass!r}")
    xs = finite_points(x_grid, "x_grid")
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

    series, trunc = _sum_series(measure, g, xs, strategy, eps, n_max)
    ghat = g.fourier(xs)

    if report.regime is Regime.LOG_CONTRACTIVE:
        if mass != 0.0:
            raise MassMustBeZero(
                "contractive regime forces the solution mass to 0"
            )
        values = series + ghat
    elif report.shift_degenerate or mass == 0.0:
        values = mass + series + ghat
    else:
        if not report.forward_series_condition:
            raise RegimeMismatch(
                f"every map fixes {-report.degeneracy_witness!r}; the forward limit is the "
                "point mass there, whose transform does not decay, so only mass 0 solves"
            )
        if isinstance(strategy, MonteCarloStrategy):
            est = estimate_charfn(measure, xs, strategy.sample_count, rng_seed=strategy.seed)
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
    output nodes.  A non-finite frequency, spectrum value or output node
    raises ``ValueError``.
    """
    xs = finite_points(spec.x_grid, "spec.x_grid")
    vals = finite_points(spec.values, "spec.values", complex)
    ts = finite_points(t_grid, "t_grid")
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
