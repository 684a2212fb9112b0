"""Tsallis-entropy goodness-of-fit testing for generalized Gaussian and
q-Gaussian models: exact samplers, closed-form entropies, the
nearest-neighbor entropy estimator, test statistics, and a reproducible
Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateSampleError,
    DomainError,
    InfeasibleModelError,
    NotPositiveDefiniteError,
)
from .mathcore import (
    RngStream,
    draw_gamma,
    log_gamma,
    unit_ball_volume,
)
from .linalg import (
    SymPDMatrix,
    as_sample_matrix,
    cholesky,
    log_det,
    mahalanobis_sq,
    sample_mean_cov,
)
from .distributions import (
    GGParams,
    QGaussianParams,
    gg_covariance,
    gg_log_pdf,
    gg_norm_const,
    gg_q_integral,
    gg_sample,
    gg_tsallis_entropy,
    gg_variance_scale,
    qgauss_covariance,
    qgauss_covariance_factor,
    qgauss_log_pdf,
    qgauss_norm_const,
    qgauss_q_integral,
    qgauss_sample,
    qgauss_shape_from_covariance,
    qgauss_tsallis_entropy,
    tsallis_entropy_uniform,
)
from .knn import knn_distances, knn_distances_bruteforce
from .entropy import (
    ConsistencyReport,
    EntropyEstimate,
    check_consistency_conditions,
    knn_bias_constant,
    tsallis_knn_estimate,
)
from .statkit import (
    RegressionFit,
    ShapiroResult,
    empirical_quantile,
    ols_slope_with_offset,
    shapiro_wilk,
)
from .gof import TestResult, gof_statistic, null_max_entropy, run_test
from .harness import (
    CriticalValueRow,
    CriticalValueTable,
    ExperimentConfig,
    GridBlock,
    load_config,
    parse_config,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
