"""Numerical toolkit for refinement identities with random affine maps.

Solves f(x) = sum_i p_i |l_i| f(l_i x - m_i) + g(x) for finitely supported
laws of (scale, shift): regime classification, spectral series solver with
inverse transform, CDF-level fixed-point iteration, perpetuity simulation
and residual-based verification.

The public names below load their submodule on first access (PEP 562), so
``import randrefine`` is cheap and a CLI subcommand imports only what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closedform": (
        "ClosedFormFn", "Gaussian", "Indicator", "Triangle", "affine_image",
        "fn_from_json", "gaussian", "indicator", "manufacture_inhomogeneity",
        "triangle", "zero_fn", "zero_mean_check",
    ),
    "errors": (
        "CriticalRegime", "EmptyMeasure", "EnumerationTooLarge",
        "ImaginaryResidueTooLarge", "InvalidMeasure", "MassMustBeZero",
        "NegativeScale", "NonPositiveWeight", "NonzeroMeanInhomogeneity",
        "NotMeanContractive", "RandRefineError", "RegimeMismatch",
        "SpectralLeakage", "SymmetryViolated", "WeightsNotNormalized",
        "WindowTooSmall", "ZeroScaleAtom",
    ),
    "gridfn": ("GridFn", "symmetric_grid"),
    "measure": (
        "RandomAffineMeasure", "Regime", "RegimeReport", "build_measure",
        "check_no_common_fixed_point", "classify_regime", "measure_from_json",
    ),
    "perpetuity": (
        "PathLaw", "PerpetuityEstimate", "check_cdf_integral_identity", "draw_backward",
        "draw_forward", "enumerate_paths", "estimate_cdf", "estimate_charfn",
    ),
    "picard": (
        "PicardResult", "cdf_equation_residual", "differentiate",
        "integrability_diagnostic", "picard_iterate",
    ),
    "spectrum": (
        "EXACT", "ExactStrategy", "MonteCarloStrategy", "Spectrum", "TruncationReport",
        "forward_charfn_product", "invert_spectrum", "solve_spectrum", "sum_series_grid",
    ),
    "verify": (
        "ResidualReport", "example_family", "finite_depth_residual", "mirror_about",
        "residual_time",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``randrefine.spectrum``
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
