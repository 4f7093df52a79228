import numpy as np
import pytest
from hypothesis import settings

import randrefine as rr

# Selected in CI with --hypothesis-profile=ci: a failing example then also
# prints the @reproduce_failure blob that replays it.  It replaces hypothesis's
# own ci profile, which derandomizes; built on the default, examples stay random.
settings.register_profile("ci", settings.get_profile("default"), print_blob=True)


@pytest.fixture(scope="session")
def contractive_pair():
    """Single contractive atom with a manufactured Gaussian-pair solution."""
    measure = rr.build_measure([(0.5, 1.0, 1.0)])
    f = rr.gaussian(0, 1) - rr.gaussian(3, 1)
    g = rr.manufacture_inhomogeneity(measure, f)
    return measure, f, g


@pytest.fixture(scope="session")
def expansive_pair():
    """Dyadic expansive measure with a manufactured two-step solution."""
    measure = rr.build_measure([(2.0, 0.0, 0.5), (2.0, 1.0, 0.5)])
    f = rr.indicator(0, 1) + rr.indicator(2, 3)
    g = rr.manufacture_inhomogeneity(measure, f)
    return measure, f, g


def staircase_cdf(t_min: float, t_max: float, step: float) -> rr.GridFn:
    """Bounded Lipschitz running integral whose slopes are +-1/(n+1) on unit
    intervals marching left: V-dips of depth 1/(n+1) on [-2n-2, -2n], flat 0
    on [0, inf).  Its derivative has harmonic L1 growth, so no integrable
    density represents it."""

    def values(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        neg = x < 0.0
        u = -x[neg]
        n = np.floor(u / 2.0)
        frac = u - 2.0 * n            # in [0, 2)
        depth = 1.0 / (n + 1.0)
        # frac in [0,1): rising edge of the dip (seen from the left end)
        out[neg] = np.where(frac < 1.0, -frac * depth, -(2.0 - frac) * depth)
        return out

    return rr.GridFn.from_function(values, t_min, t_max, step,
                                   left_value=0.0, right_value=0.0)
