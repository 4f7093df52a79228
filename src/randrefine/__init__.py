"""Numerical toolkit for refinement identities with random affine maps.

Solves f(x) = sum_i p_i |l_i| f(l_i x - m_i) + g(x) for finitely supported
laws of (scale, shift): regime classification, spectral series solver with
inverse transform, CDF-level fixed-point iteration, perpetuity simulation
and residual-based verification.
"""

__version__ = "0.1.0"

from .closedform import (
    ClosedFormFn,
    Gaussian,
    Indicator,
    Triangle,
    affine_image,
    fn_from_json,
    gaussian,
    indicator,
    manufacture_inhomogeneity,
    triangle,
    zero_fn,
    zero_mean_check,
)
from .errors import (
    CriticalRegime,
    EmptyMeasure,
    EnumerationTooLarge,
    ImaginaryResidueTooLarge,
    InvalidMeasure,
    MassMustBeZero,
    NegativeScale,
    NonPositiveWeight,
    NonzeroMeanInhomogeneity,
    NotMeanContractive,
    RandRefineError,
    RegimeMismatch,
    SpectralLeakage,
    SymmetryViolated,
    WeightsNotNormalized,
    WindowTooSmall,
    ZeroScaleAtom,
)
from .gridfn import GridFn
from .measure import (
    Moments,
    RandomAffineMeasure,
    Regime,
    RegimeReport,
    build_measure,
    check_no_common_fixed_point,
    classify_regime,
    compute_moments,
    measure_from_json,
)
from .perpetuity import (
    PathLaw,
    PerpetuityEstimate,
    check_cdf_integral_identity,
    draw_backward,
    draw_forward,
    enumerate_paths,
    estimate_cdf,
    estimate_charfn,
    forward_truncation_depth,
    sample_backward_iterate,
    sample_forward_series,
)
from .picard import (
    PicardResult,
    cdf_equation_residual,
    differentiate,
    integrability_diagnostic,
    picard_iterate,
)
from .spectrum import (
    EXACT,
    ExactStrategy,
    MonteCarloStrategy,
    Spectrum,
    TruncationReport,
    forward_charfn_product,
    invert_spectrum,
    series_term,
    series_term_mc,
    solve_spectrum,
    sum_series,
    sum_series_grid,
    symmetric_grid,
)
from .verify import (
    ResidualReport,
    example_family,
    finite_depth_residual,
    mirror_about,
    probe_grid,
    residual_fourier,
    residual_time,
)
