"""Closed-form test functions: exact values, transforms, antiderivatives.

Three primitive shapes, each of unit peak height and each closed under the
affine substitution ``t -> l*t - m``:

* ``Indicator(a, b)`` -- 1 on the half-open interval [a, b), 0 elsewhere
* ``Triangle(center, halfwidth)`` -- tent peaking at 1
* ``Gaussian(mean, stddev)`` -- ``exp(-(t-mean)^2 / (2 stddev^2))``

A :class:`ClosedFormFn` is a finite linear combination of primitives, so
pointwise values, the transform ``fhat(x) = int exp(i t x) f(t) dt`` (no
normalization factor; the inverse in the spectrum module carries 1/(2 pi)),
the running integral ``int_{-inf}^x f``, the L1 bound and the moments
``int (t - c)^k f`` with bounds on the absolute ones are all available in
closed form, without quadrature error.  The transform evaluates all terms
of one kind in one array pass over their stacked constants, in bounded
blocks, and adds the rows in term order, so each value has the bytes of
its own term's formula.  Each primitive is symmetric about
its centre, so its moments expand binomially from its absolute central
moments with no cancelling terms.

The half-open indicator convention makes halving identities such as
``chi_[0,1) == chi_[0,1/2) + chi_[1/2,1)`` hold pointwise everywhere, not
just almost everywhere.  Reflections (negative scale) still move the closed
endpoint, so probe grids elsewhere in the package avoid indicator jump
points.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)

#: Values a :meth:`ClosedFormFn.fourier` pass holds per temporary.
_BLOCK_ELEMS = 1 << 14

#: Effective support of a Gaussian, in standard deviations.
GAUSSIAN_SUPPORT_SIGMAS = 10.0

# Cephes ndtr.c rational approximations, highest power first: x T(x^2)/U(x^2)
# on |x| < 1, and erfc(x) = exp(-x^2) P(x)/Q(x) on 1 <= x < 6.  From 6 on,
# erfc(x) < 2.2e-17 is below half an ulp of 1, so erf rounds to +-1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(coefs, v):
    """``np.polyval(coefs, v)`` updated in place, without its temporaries."""
    out = np.full_like(v, coefs[0])
    for c in coefs[1:]:
        out *= v
        out += c
    return out


def _erf(x):
    """Vectorised error function; agrees with ``math.erf`` to 4e-16."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.sign(x, out=np.empty_like(x))  # +-1 from |x| = 6 on; nan stays
    small = a < 1.0
    s = x[small]
    z = s * s
    out[small] = s * _horner(_ERF_T, z) / _horner(_ERF_U, z)
    mid = (a >= 1.0) & (a < 6.0)
    m = a[mid]
    erfc = np.exp(-m * m) * _horner(_ERFC_P, m) / _horner(_ERFC_Q, m)
    out[mid] = np.copysign(1.0 - erfc, x[mid])
    return out[()]


@functools.lru_cache(maxsize=None)
def _binomials(order: int) -> np.ndarray:
    """``C(k, j)`` for j, k < order (0 for j > k)."""
    return np.array([[math.comb(k, j) for j in range(order)] for k in range(order)], dtype=float)


def _expand(d: float, nu: np.ndarray, signed: bool) -> np.ndarray:
    """``sum_j C(k, j) d^(k-j) nu_j`` for k < len(nu): the k-th moment
    about 0 of a shape symmetric about ``d`` with absolute central moments
    ``nu_j``.  Signed, its odd central moments vanish and every kept term has
    the sign of ``d^k``, so nothing cancels; with ``|d|`` in place of ``d`` it
    is ``int (|d| + |v|)^k``, an upper bound of the absolute moment."""
    order = len(nu)
    lag = np.subtract.outer(np.arange(order), np.arange(order))
    powers = np.vander([d if signed else abs(d)], order, increasing=True)[0]
    table = _binomials(order) * np.where(lag >= 0, powers[np.maximum(lag, 0)], 0.0)
    if signed:
        nu = np.where(np.arange(order) % 2 == 0, nu, 0.0)
    return table @ nu


def _require_finite(prim) -> None:
    if not all(math.isfinite(v) for v in prim.params()):
        raise ValueError(f"{prim.kind} parameters must be finite, got {prim.params()}")


@dataclass(frozen=True)
class Indicator:
    a: float
    b: float

    kind = "indicator"

    def __post_init__(self):
        _require_finite(self)
        if not self.a < self.b:
            raise ValueError(f"Indicator needs a < b, got [{self.a}, {self.b})")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return ((t >= self.a) & (t < self.b)).astype(float)

    def transform_consts(self) -> tuple:
        return self.b - self.a, 1j * (0.5 * (self.a + self.b))

    @staticmethod
    def transform(width, jmid, x):
        # (e^{ibx} - e^{iax}) / (ix), written via sinc so x = 0 is exact.
        return width * np.sinc(width * x / (2.0 * np.pi)) * np.exp(jmid * x)

    def integral_to(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(x - self.a, 0.0, self.b - self.a)

    def mass(self) -> float:
        return self.b - self.a

    def support(self) -> tuple[float, float]:
        return self.a, self.b

    def jumps(self) -> tuple[float, ...]:
        return (self.a, self.b)

    def centre(self) -> float:
        return 0.5 * (self.a + self.b)

    def abs_central_moments(self, order: int) -> np.ndarray:
        h = 0.5 * (self.b - self.a)
        j = np.arange(order)
        return 2.0 * h ** (j + 1) / (j + 1)

    def affine_image(self, l: float, m: float) -> tuple[float, "Indicator"]:
        lo, hi = sorted(((self.a + m) / l, (self.b + m) / l))
        return abs(l), Indicator(lo, hi)

    def params(self) -> list[float]:
        return [self.a, self.b]


@dataclass(frozen=True)
class Triangle:
    center: float
    halfwidth: float

    kind = "triangle"

    def __post_init__(self):
        _require_finite(self)
        if not self.halfwidth > 0:
            raise ValueError("Triangle needs halfwidth > 0")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(t - self.center) / self.halfwidth)

    def transform_consts(self) -> tuple:
        return self.halfwidth, 1j * self.center

    @staticmethod
    def transform(w, jcenter, x):
        return w * np.sinc(w * x / (2.0 * np.pi)) ** 2 * np.exp(jcenter * x)

    def integral_to(self, x):
        x = np.asarray(x, dtype=float)
        w = self.halfwidth
        u = np.clip(x - self.center, -w, w)
        rising = 0.5 * (u + w) ** 2 / w
        falling = w - 0.5 * (w - u) ** 2 / w
        return np.where(u <= 0.0, rising, falling)

    def mass(self) -> float:
        return self.halfwidth

    def support(self) -> tuple[float, float]:
        return self.center - self.halfwidth, self.center + self.halfwidth

    def jumps(self) -> tuple[float, ...]:
        return ()

    def centre(self) -> float:
        return self.center

    def abs_central_moments(self, order: int) -> np.ndarray:
        j = np.arange(order)
        return 2.0 * self.halfwidth ** (j + 1) / ((j + 1) * (j + 2))

    def affine_image(self, l: float, m: float) -> tuple[float, "Triangle"]:
        return abs(l), Triangle((self.center + m) / l, self.halfwidth / abs(l))

    def params(self) -> list[float]:
        return [self.center, self.halfwidth]


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stddev: float

    kind = "gaussian"

    def __post_init__(self):
        _require_finite(self)
        if not self.stddev > 0:
            raise ValueError("Gaussian needs stddev > 0")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        z = (t - self.mean) / self.stddev
        return np.exp(-0.5 * z * z)

    def transform_consts(self) -> tuple:
        return self.stddev * _SQRT2PI, 1j * self.mean, self.stddev

    @staticmethod
    def transform(amp, jmean, s, x):
        return amp * np.exp(jmean * x - 0.5 * (s * x) ** 2)

    def integral_to(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / (self.stddev * math.sqrt(2.0))
        return self.stddev * _SQRT2PI * 0.5 * (1.0 + _erf(z))

    def mass(self) -> float:
        return self.stddev * _SQRT2PI

    def support(self) -> tuple[float, float]:
        pad = GAUSSIAN_SUPPORT_SIGMAS * self.stddev
        return self.mean - pad, self.mean + pad

    def jumps(self) -> tuple[float, ...]:
        return ()

    def centre(self) -> float:
        return self.mean

    def abs_central_moments(self, order: int) -> np.ndarray:
        # E|Z|^j = 2^(j/2) Gamma((j+1)/2) / sqrt(pi) for a standard normal Z
        gamma = np.array([math.gamma(0.5 * (j + 1)) for j in range(order)])
        scale = math.sqrt(2.0) * self.stddev
        return self.mass() * scale ** np.arange(order) * gamma / math.sqrt(math.pi)

    def affine_image(self, l: float, m: float) -> tuple[float, "Gaussian"]:
        return abs(l), Gaussian((self.mean + m) / l, self.stddev / abs(l))

    def params(self) -> list[float]:
        return [self.mean, self.stddev]


Primitive = Union[Indicator, Triangle, Gaussian]

_KINDS = {"indicator": Indicator, "triangle": Triangle, "gaussian": Gaussian}


@dataclass(frozen=True)
class ClosedFormFn:
    """Linear combination of primitives.  Immutable value type.

    Supports ``+``, ``-`` and scalar ``*`` so fixtures read like formulas:
    ``indicator(0, 1) - 2.0 * gaussian(3, 1)``.
    """

    terms: tuple[tuple[float, Primitive], ...]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for c, prim in self.terms:
            out += c * prim.value(t)
        return out if out.shape else float(out)

    def fourier(self, x):
        """Transform ``int exp(i t x) f(t) dt``, exact per primitive.

        All terms of one kind are evaluated in one array pass: the kind's
        ``transform`` takes its terms' constants as columns, so each row
        gets the floats and operand order of its own term.  The rows are
        then added to the output one by one in term order.  The flattened
        ``x`` is cut into blocks of ``_BLOCK_ELEMS // len(terms)`` points,
        so a pass's temporaries hold at most ``_BLOCK_ELEMS`` values.  A
        scalar ``x`` is a one-point array."""
        x = np.asarray(x, dtype=float)
        if not x.shape:
            return complex(self.fourier(x.reshape(1))[0])
        flat = x.ravel()
        out = np.zeros(flat.shape, dtype=complex)
        rows = [None] * len(self.terms)
        step = max(1, _BLOCK_ELEMS // max(len(self.terms), 1))
        for start in range(0, len(flat), step):
            xb = flat[start:start + step]
            for transform, index, coefs, consts in self._kinds:
                for i, row in zip(index, coefs * transform(*consts, xb)):
                    rows[i] = row
            block = out[start:start + step]
            for row in rows:
                block += row
        return out.reshape(x.shape)

    @functools.cached_property
    def _kinds(self) -> list:
        """Per primitive kind: its ``transform``, its terms' positions, and
        their coefficients and transform constants as columns."""
        kinds: dict[type, list] = {}
        for i, (c, prim) in enumerate(self.terms):
            kinds.setdefault(type(prim), []).append((i, c, *prim.transform_consts()))
        return [
            (cls.transform, index, np.array(coefs)[:, None],
             [np.array(col)[:, None] for col in consts])
            for cls, terms in kinds.items()
            for index, coefs, *consts in [zip(*terms)]
        ]

    def antiderivative(self, x):
        """Running integral from -infinity; bounded, 0 at the far left."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for c, prim in self.terms:
            out += c * prim.integral_to(x)
        return out if out.shape else float(out)

    def mass(self) -> float:
        return math.fsum(c * prim.mass() for c, prim in self.terms)

    def l1_upper_bound(self) -> float:
        return math.fsum(abs(c) * prim.mass() for c, prim in self.terms)

    # -- moments --------------------------------------------------------------

    def centre(self) -> float:
        """The terms' centres averaged with weights ``|c| * mass``; 0 when empty."""
        weights = [abs(c) * prim.mass() for c, prim in self.terms]
        total = math.fsum(weights)
        if total == 0.0:
            return 0.0
        return math.fsum(w * prim.centre() for w, (_, prim) in zip(weights, self.terms)) / total

    def moments(self, order: int, c: float = 0.0) -> np.ndarray:
        """``m_k = int (t - c)^k f(t) dt`` for k < order, in closed form, so
        ``fhat(y) = exp(i y c) sum_k (i y)^k m_k / k!``."""
        return self._moment_sum(order, c, signed=True)

    def abs_moment_bounds(self, order: int, c: float = 0.0) -> np.ndarray:
        """``M_k >= int |t - c|^k |f(t)| dt`` for k < order.  The Taylor
        remainder of ``exp(-i y c) fhat(y)`` after K terms is at most
        ``M_K |y|^K / K!``; ``M_0`` is :meth:`l1_upper_bound`."""
        return self._moment_sum(order, c, signed=False)

    def _moment_sum(self, order: int, c: float, signed: bool) -> np.ndarray:
        out = np.zeros(order)
        with np.errstate(over="ignore", invalid="ignore"):  # absurd parameters give inf or nan
            for coef, prim in self.terms:
                nu = prim.abs_central_moments(order)
                out += (coef if signed else abs(coef)) * _expand(prim.centre() - c, nu, signed)
        return out

    def support(self) -> tuple[float, float]:
        """Hull of the terms' effective supports (Gaussians padded)."""
        if not self.terms:
            return 0.0, 0.0
        lows, highs = zip(*(prim.support() for _, prim in self.terms))
        return min(lows), max(highs)

    def jump_points(self) -> tuple[float, ...]:
        pts = set()
        for _, prim in self.terms:
            pts.update(prim.jumps())
        return tuple(sorted(pts))

    def simplify(self) -> "ClosedFormFn":
        """Merge identical primitives; keep only coefficients with
        ``abs(c) > 0.0``, so terms that merge to zero are dropped."""
        merged: dict[Primitive, float] = {}
        for c, prim in self.terms:
            merged[prim] = merged.get(prim, 0.0) + c
        kept = tuple(
            (c, prim) for prim, c in merged.items() if abs(c) > 0.0
        )
        return ClosedFormFn(kept)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ClosedFormFn") -> "ClosedFormFn":
        return ClosedFormFn(self.terms + other.terms)

    def __sub__(self, other: "ClosedFormFn") -> "ClosedFormFn":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "ClosedFormFn":
        return ClosedFormFn(tuple((scalar * c, prim) for c, prim in self.terms))

    def __mul__(self, scalar: float) -> "ClosedFormFn":
        return self.__rmul__(scalar)

    def __neg__(self) -> "ClosedFormFn":
        return (-1.0) * self

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            [
                {"coef": c, "kind": prim.kind, "params": prim.params()}
                for c, prim in self.terms
            ]
        )


def fn_from_json(text: str) -> ClosedFormFn:
    """Parse ``[{"coef":..,"kind":..,"params":[..]}, ...]``."""
    raw = json.loads(text)
    terms = []
    for item in raw:
        cls = _KINDS[item["kind"]]
        terms.append((float(item["coef"]), cls(*item["params"])))
    return ClosedFormFn(tuple(terms))


# convenience constructors ----------------------------------------------------

def indicator(a: float, b: float) -> ClosedFormFn:
    return ClosedFormFn(((1.0, Indicator(a, b)),))


def triangle(center: float, halfwidth: float) -> ClosedFormFn:
    return ClosedFormFn(((1.0, Triangle(center, halfwidth)),))


def gaussian(mean: float, stddev: float) -> ClosedFormFn:
    return ClosedFormFn(((1.0, Gaussian(mean, stddev)),))


def zero_fn() -> ClosedFormFn:
    return ClosedFormFn(())


# operations ------------------------------------------------------------------

#: The zero-mean gate's slack C, in roundings per term of ``ghat(0)``.
_ZERO_MEAN_C = 16


def zero_mean_check(fn: ClosedFormFn) -> bool:
    """True when the total integral ``ghat(0)`` vanishes to within its own
    rounding, the admissibility gate for a forcing term:
    ``|ghat(0)| <= C n eps ||g||_1`` with ``C = 16``, n the
    number of terms, ``eps`` the machine epsilon and ``||g||_1`` bounded by
    :meth:`ClosedFormFn.l1_upper_bound`.  The gate scales with g, so ``s g``
    passes exactly when g does (up to rounding of the bound).  A total that
    overflows to inf or nan never passes."""
    bound = _ZERO_MEAN_C * len(fn.terms) * np.finfo(float).eps * fn.l1_upper_bound()
    total = abs(fn.fourier(0.0))
    return math.isfinite(total) and total <= bound


def affine_image(fn: ClosedFormFn, l: float, m: float) -> ClosedFormFn:
    """Closed form of ``|l| * f(l*t - m)``.

    Mass is preserved term by term.  For negative ``l`` an indicator image
    differs from the true substitution at its two endpoints (the closed end
    flips); all identities hold away from those points.
    """
    if l == 0.0:
        raise ValueError("affine image needs l != 0")
    terms = []
    for c, prim in fn.terms:
        factor, image = prim.affine_image(l, m)
        terms.append((c * factor, image))
    return ClosedFormFn(tuple(terms))


def manufacture_inhomogeneity(measure, f: ClosedFormFn) -> ClosedFormFn:
    """Forcing term that makes ``f`` an exact solution for ``measure``.

    Rearranges the refinement identity:  g = f - sum_i p_i |l_i| f(l_i x - m_i).
    Because each weighted image preserves mass and the weights sum to 1, the
    result always has zero total integral.
    """
    g = f
    for l, m, p in measure.atoms:
        g = g - p * affine_image(f, l, m)
    return g.simplify()
