"""Uniform grids, and sampled real functions with linear interpolation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Most nodes a grid may hold.  Far above any grid the solvers need, it
#: makes a mistyped step fail at once instead of in the allocator.
MAX_GRID_NODES = 10**7


def grid_size(t_min: float, t_max: float, step: float) -> int:
    """Node count of the uniform grid ``t_min, t_min+step, ..., t_max``.

    Raises ``ValueError`` unless the window is finite with ``t_min < t_max``,
    the step is finite and positive, and the grid has at least two and at
    most :data:`MAX_GRID_NODES` nodes.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max) and t_min < t_max):
        raise ValueError(f"window must be finite with t_min < t_max, got ({t_min!r}, {t_max!r})")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    span = (t_max - t_min) / step  # infinite when a tiny step overflows it
    n = int(round(span)) + 1 if math.isfinite(span) else math.inf
    if n > MAX_GRID_NODES:
        raise ValueError(f"window ({t_min!r}, {t_max!r}) at step {step!r} needs {n} nodes, "
                         f"above the budget {MAX_GRID_NODES}")
    if n < 2:
        raise ValueError(f"window ({t_min!r}, {t_max!r}) at step {step!r} holds fewer than two nodes")
    return n


def finite_points(points, name: str, dtype=float) -> np.ndarray:
    """``points`` (a scalar counts as one point) as a 1-D array of ``dtype``.

    The one input rule for point arrays: raises ``ValueError`` naming
    ``name`` unless the array is 1-D and every entry is finite.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=dtype))
    if pts.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        i = int(np.flatnonzero(~np.isfinite(pts))[0])
        raise ValueError(f"{name} must be finite, got {pts[i].item()!r} at index {i}")
    return pts


def half_grid(xs: np.ndarray):
    """The distinct |x| of ``xs``, and ``mirror`` taking values on them back
    to ``xs``, conjugated at x < 0 as a real function's transform is."""
    half, inverse = np.unique(np.abs(xs), return_inverse=True)
    return half, lambda v: np.where(xs < 0, v[inverse].conj(), v[inverse])


def affine_step(xs: np.ndarray) -> float | None:
    """``dx`` when the ascending ``xs`` are ``xs[0] + k dx`` within 4 ulps of
    the largest, else None; two points are always affine (their drift is at
    most 1 ulp), and fewer have no step."""
    if len(xs) < 2:
        return None
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    drift = np.abs(xs - (xs[0] + np.arange(len(xs)) * dx))
    return dx if np.all(drift <= 4 * np.spacing(xs[-1])) else None


def linspace_index(p: np.ndarray, t0: float, t1: float, n: int) -> np.ndarray | None:
    """Indices of the intervals of ``np.linspace(t0, t1, n)`` holding the
    finite points ``p``, each off by at most one, or None when that bound
    does not hold.

    The index is arithmetic: ``trunc((p - t0) / h)`` clipped to
    ``[0, n - 2]``, with ``h = (t1 - t0) / (n - 1)``.  With ``u = 2**-53``
    and ``T = max|t0|, |t1|``, a linspace node ``fl(fl(k h) + t0)`` lies
    within ``7.1 u T`` of ``t0 + k H`` (``H`` the exact spacing), so the true
    index lies in ``(s - 1 - 7.1 u T / H, s + 7.1 u T / H]`` for
    ``s = (p - t0) / H``; the computed quotient is within ``4.01 u n`` of
    ``s``.  When ``8 eps (T / h + n) < 1`` both slacks sum below 1, and the
    two integers differ by at most 1.  Finer grids, whose spacing nears the
    rounding of their own coordinates, get None.
    """
    h = (t1 - t0) / (n - 1)
    if not 8 * np.finfo(float).eps * (max(abs(t0), abs(t1)) / h + n) < 1:
        return None
    with np.errstate(over="ignore"):  # a point far outside clips to an end
        q = (p - t0) / h
    return np.clip(q, 0, n - 2, out=q).astype(np.intp)


def symmetric_grid(x_max: float, points: int) -> np.ndarray:
    """Uniform grid on [-x_max, x_max] with exact mirror pairs and a 0 node."""
    if points % 2 == 0:
        raise ValueError("points must be odd so the grid contains 0")
    half = np.linspace(0.0, x_max, points // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


@dataclass(frozen=True)
class GridFn:
    """Samples on the uniform grid ``t_min, t_min+step, ..., t_max``.

    Evaluation between nodes is linear; outside the window it is the
    constant ``left_value`` / ``right_value``.  The node count is
    :func:`grid_size`'s, so a bad window or step raises ``ValueError``.
    """

    t_min: float
    t_max: float
    step: float
    values: np.ndarray
    left_value: float = 0.0
    right_value: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = grid_size(self.t_min, self.t_max, self.step)
        if vals.ndim != 1 or len(vals) != n:
            raise ValueError(
                f"expected {n} samples on [{self.t_min}, {self.t_max}] "
                f"at step {self.step}, got {vals.shape}"
            )
        if self.right_value is None:
            object.__setattr__(self, "right_value", float(vals[-1]))

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, len(self.values))

    def __call__(self, t):
        """``np.interp`` on :attr:`nodes`, byte for byte.

        ``np.interp`` reads only the nodes around each probe and the ends,
        so for fewer than n/32 finite probes only those are built, as
        linspace builds them: ``k * step + t_min``, and ``t_max`` last.
        Where :func:`linspace_index` is off by at most one node, the nodes
        from one before to two after it hold the probe's bracket."""
        t = np.asarray(t, dtype=float)
        n = len(self.values)
        few = 32 * t.size < n and np.all(np.isfinite(t))
        j = linspace_index(t.ravel(), self.t_min, self.t_max, n) if few else None
        if j is not None:
            near = np.zeros(n, dtype=bool)
            near[[0, -1]] = True
            for d in (-1, 0, 1, 2):
                near[np.clip(j + d, 0, n - 1)] = True
            keep = np.flatnonzero(near)
            nodes = keep * ((self.t_max - self.t_min) / (n - 1)) + self.t_min
            nodes[-1] = self.t_max
            values = self.values[keep]
        else:  # also at NaN, where np.interp's answer depends on where its search ends
            nodes, values = self.nodes, self.values
        out = np.interp(t, nodes, values, left=self.left_value, right=self.right_value)
        return out if out.shape else float(out)

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        t_min: float,
        t_max: float,
        step: float,
        left_value: float = 0.0,
        right_value: float | None = None,
    ) -> "GridFn":
        nodes = np.linspace(t_min, t_max, grid_size(t_min, t_max, step))
        return cls(t_min, t_max, step, np.asarray(fn(nodes), dtype=float),
                   left_value, right_value)

    def l1_norm(self) -> float:
        """Trapezoid integral of |values| over the window."""
        return float(np.trapezoid(np.abs(self.values), dx=self.step))
