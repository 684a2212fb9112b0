"""Tsallis-entropy goodness-of-fit testing for generalized Gaussian and
q-Gaussian models: exact samplers, closed-form entropies, the
nearest-neighbor entropy estimator, test statistics, and a reproducible
Monte Carlo experiment harness.

Importing the package loads none of its submodules, so neither numpy nor
scipy: each public name (and each submodule) is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "errors": (
        "ConfigError", "DegenerateSampleError", "DomainError", "InfeasibleModelError",
        "NotPositiveDefiniteError",
    ),
    "mathcore": ("RngStream", "unit_ball_volume"),
    "linalg": ("SymPDMatrix", "as_sample_matrix", "cholesky", "log_det"),
    "distributions": (
        "GGParams", "QGaussianParams", "gg_q_integral", "gg_sample", "gg_tsallis_entropy",
        "gg_variance_scale", "qgauss_covariance_factor", "qgauss_q_integral", "qgauss_sample",
        "qgauss_tsallis_entropy",
    ),
    "knn": ("knn_distances",),
    "entropy": (
        "ConsistencyReport", "EntropyEstimate", "check_consistency_conditions",
        "knn_bias_constant", "tsallis_knn_estimate",
    ),
    "statkit": (
        "RegressionFit", "ShapiroResult", "empirical_quantile", "ols_slope_with_offset",
        "shapiro_wilk",
    ),
    "gof": ("TestResult", "gof_statistic", "run_test"),
    "harness": (
        "ExperimentConfig", "GridBlock", "load_config", "parse_config", "read_critical_value",
        "run_experiment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    """Import a submodule, or the module of a public name, on first use
    (PEP 562); the value is then cached in the package namespace."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
