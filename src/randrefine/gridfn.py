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


def half_grid(xs: np.ndarray):
    """The distinct |x| of ``xs``, and ``mirror`` taking values on them back
    to ``xs``, conjugated at x < 0 as a real function's transform is."""
    half, inverse = np.unique(np.abs(xs), return_inverse=True)
    return half, lambda v: np.where(xs < 0, v[inverse].conj(), v[inverse])


@dataclass(frozen=True)
class GridFn:
    """Samples on the uniform grid ``t_min, t_min+step, ..., t_max``.

    Evaluation between nodes is linear; outside the window it is the
    constant ``left_value`` / ``right_value``.
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
        n = int(round((self.t_max - self.t_min) / self.step)) + 1
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
        t = np.asarray(t, dtype=float)
        out = np.interp(
            t, self.nodes, self.values,
            left=self.left_value, right=self.right_value,
        )
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
        n = int(round((t_max - t_min) / step)) + 1
        nodes = np.linspace(t_min, t_max, n)
        return cls(t_min, t_max, step, np.asarray(fn(nodes), dtype=float),
                   left_value, right_value)

    def l1_norm(self) -> float:
        """Trapezoid integral of |values| over the window."""
        return float(np.trapezoid(np.abs(self.values), dx=self.step))
