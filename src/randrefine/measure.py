"""Finite atomic measures of (scale, shift) pairs and their regime classification.

The toolkit deals with random affine maps ``x -> l*x - m`` where the pair
``(l, m)`` is drawn from a finitely supported probability measure.  Finite
support keeps every moment integral an exact weighted sum, so the regime
conditions below are decided exactly up to float rounding.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyMeasure,
    InvalidMeasure,
    NonPositiveWeight,
    WeightsNotNormalized,
    ZeroScaleAtom,
)

#: Absolute tolerance on sum(p) - 1 at construction time.
WEIGHT_TOL = 1e-12

#: Tolerance on the log-scale mean when deciding the critical regime.
REGIME_TOL = 1e-12

#: Relative tolerance used when testing m == c*(1 - l) for a witness c.
FIXED_POINT_RTOL = 1e-12


class Regime(str, enum.Enum):
    """Sign of E log|L|, which selects the solution characterization."""

    LOG_EXPANSIVE = "LogExpansive"
    LOG_CONTRACTIVE = "LogContractive"
    CRITICAL = "Critical"


@dataclass(frozen=True)
class RandomAffineMeasure:
    """Finitely supported law of (scale, shift), atoms ``(l, m, p)``.

    Invariants (enforced by :func:`build_measure`): the atom list is
    non-empty, sorted, duplicate ``(l, m)`` pairs are merged, every scale is
    nonzero, every weight is positive and the weights sum to 1 exactly after
    renormalization.  Instances are immutable and safe to share between
    parallel workers.
    """

    atoms: tuple[tuple[float, float, float], ...]

    @property
    def scales(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms])

    @property
    def shifts(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[2] for a in self.atoms])

    def __len__(self) -> int:
        return len(self.atoms)

    def to_json(self) -> str:
        return json.dumps([{"l": l, "m": m, "p": p} for l, m, p in self.atoms])


def build_measure(atoms: Iterable[Sequence[float]]) -> RandomAffineMeasure:
    """Validate, merge and renormalize a list of ``(l, m, p)`` atoms.

    Raises :class:`InvalidMeasure` for a non-finite scale or shift, and
    :class:`EmptyMeasure`, :class:`ZeroScaleAtom`,
    :class:`NonPositiveWeight` or :class:`WeightsNotNormalized`.
    """
    merged: dict[tuple[float, float], float] = {}
    for atom in atoms:
        l, m, p = (float(v) for v in atom)
        m += 0.0  # canonicalize -0.0
        if not (math.isfinite(l) and math.isfinite(m)):
            raise InvalidMeasure(f"atom ({l}, {m}, {p}) has a non-finite scale or shift")
        if l == 0.0:
            raise ZeroScaleAtom(f"atom ({l}, {m}, {p}) has scale 0")
        if not p > 0.0:
            raise NonPositiveWeight(f"atom ({l}, {m}, {p}) has weight <= 0")
        merged[(l, m)] = merged.get((l, m), 0.0) + p
    if not merged:
        raise EmptyMeasure("measure needs at least one atom")
    total = math.fsum(merged.values())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise WeightsNotNormalized(f"weights sum to {total!r}, expected 1")
    canonical = tuple(
        (l, m, p / total) for (l, m), p in sorted(merged.items())
    )
    return RandomAffineMeasure(canonical)


def measure_from_json(text: str) -> RandomAffineMeasure:
    """Parse the JSON array-of-objects form ``[{"l":..,"m":..,"p":..}, ...]``."""
    raw = json.loads(text)
    return build_measure([(a["l"], a["m"], a["p"]) for a in raw])


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

def _witness_matches(measure: RandomAffineMeasure, c: float) -> bool:
    """Does m == c*(1 - l) hold on every atom, to machine precision?"""
    for l, m, _ in measure.atoms:
        target = c * (1.0 - l)
        scale = max(1.0, abs(m), abs(c) * (1.0 + abs(l)))
        if abs(m - target) > FIXED_POINT_RTOL * scale:
            return False
    return True


def check_no_common_fixed_point(
    measure: RandomAffineMeasure,
) -> tuple[bool, float | None]:
    """Test whether the affine maps share a fixed structure.

    Returns ``(True, None)`` when no constant ``c`` satisfies
    ``m == c*(1 - l)`` on every atom; otherwise ``(False, c)``.  A failing
    ``c`` means ``l*c + m == c`` almost surely (equivalently ``-c`` is fixed
    by every map ``x -> l*x - m``), which collapses the perpetuity to a
    point.  The search is exact: atoms with ``l != 1`` pin ``c`` to
    ``m/(1-l)``; if every atom has ``l == 1`` the only possible collapse is
    ``m == 0`` everywhere, reported with witness 0.
    """
    off_unit = [(l, m) for l, m, _ in measure.atoms if l != 1.0]
    if not off_unit:
        if all(m == 0.0 for _, m, _ in measure.atoms):
            return False, 0.0
        return True, None
    l0, m0 = off_unit[0]
    candidate = m0 / (1.0 - l0)
    if _witness_matches(measure, candidate):
        return False, candidate
    return True, None


def _log_moment_exactly_zero(measure: RandomAffineMeasure) -> bool:
    """Symbolic zero test: scales of modulus one, or reciprocal pairs of
    equal weight, make E log|L| vanish without float cancellation noise."""
    residual: dict[float, float] = {}
    for l, _, p in measure.atoms:
        a = abs(l)
        if a == 1.0:
            continue
        residual[a] = residual.get(a, 0.0) + p
    for a, p in list(residual.items()):
        if a <= 1.0:
            continue
        partner = residual.get(1.0 / a)
        if partner is None or partner != p:
            return False
        del residual[1.0 / a]
        del residual[a]
    return not residual


# ---------------------------------------------------------------------------
# regime report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeReport:
    """Moments, condition flags and the regime verdict for one measure."""

    mean_log_scale: float                  # E log|L|
    mean_scale: float                      # E L
    mean_log_plus_shift: float             # E log max(|M|, 1)
    mean_log_plus_shift_over_scale: float  # E log max(|M/L|, 1)
    shift_degenerate: bool           # every shift is exactly 0
    no_common_fixed_point: bool
    degeneracy_witness: float | None
    mean_contractive: bool           # E L < 1 with all scales positive
    scales_positive: bool
    regime: Regime
    forward_series_condition: bool   # expansive + no common fixed point

    @property
    def shift_nondegenerate(self) -> bool:
        return not self.shift_degenerate

    def to_dict(self) -> dict:
        return {
            "mean_log_scale": self.mean_log_scale,
            "mean_scale": self.mean_scale,
            "mean_log_plus_shift": self.mean_log_plus_shift,
            "mean_log_plus_shift_over_scale": self.mean_log_plus_shift_over_scale,
            "shift_degenerate": self.shift_degenerate,
            "no_common_fixed_point": self.no_common_fixed_point,
            "degeneracy_witness": self.degeneracy_witness,
            "mean_contractive": self.mean_contractive,
            "scales_positive": self.scales_positive,
            "regime": self.regime.value,
            "forward_series_condition": self.forward_series_condition,
        }


def classify_regime(measure: RandomAffineMeasure) -> RegimeReport:
    """Evaluate every distributional condition and name the regime.

    The regime is the sign of E log|L|: positive is expansive, negative
    contractive, zero critical.  Zero is detected symbolically when the
    scales allow it, otherwise within :data:`REGIME_TOL`.
    """
    ls, ms, ps = measure.scales, measure.shifts, measure.weights
    mean_log_scale = float(np.dot(ps, np.log(np.abs(ls))))
    mean_scale = float(np.dot(ps, ls))
    no_cfp, witness = check_no_common_fixed_point(measure)
    scales_positive = bool(np.all(ls > 0.0))
    shift_degenerate = bool(np.all(ms == 0.0))

    if _log_moment_exactly_zero(measure) or abs(mean_log_scale) <= REGIME_TOL:
        regime = Regime.CRITICAL
    elif mean_log_scale > 0.0:
        regime = Regime.LOG_EXPANSIVE
    else:
        regime = Regime.LOG_CONTRACTIVE

    # The log-plus moment of M/L is always finite on finite support, so the
    # sufficient condition for a.s. absolute convergence of the forward
    # series reduces to the fixed-point condition.
    forward_ok = regime is Regime.LOG_EXPANSIVE and no_cfp

    return RegimeReport(
        mean_log_scale=mean_log_scale,
        mean_scale=mean_scale,
        mean_log_plus_shift=float(np.dot(ps, np.log(np.maximum(np.abs(ms), 1.0)))),
        mean_log_plus_shift_over_scale=float(
            np.dot(ps, np.log(np.maximum(np.abs(ms / ls), 1.0)))
        ),
        shift_degenerate=shift_degenerate,
        no_common_fixed_point=no_cfp,
        degeneracy_witness=witness,
        mean_contractive=mean_scale < 1.0 and scales_positive,
        scales_positive=scales_positive,
        regime=regime,
        forward_series_condition=forward_ok,
    )
