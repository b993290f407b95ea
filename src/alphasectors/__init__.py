"""Alpha-point localization for k-fold symmetric functions.

Core surface: build a StructuredFunction or SeriesFunction, solve for the
alpha-set with alpha_points, count independently with the winding oracle,
and verify the sector-localization predictions with the checks module.
"""

from .sectors import (
    SectorIndex,
    classify_sector,
    line_side,
    ray_indices,
    real_direction_index,
    solve_linear_congruence,
    unit_rotation,
)
from .functions import (
    AlphaPoint,
    PoleProximity,
    SeriesFunction,
    StructuredFunction,
    alpha_polynomial,
    evaluate_G,
    evaluate_R,
    exponential_alpha_series,
    normalization_constant,
    truncate_series,
)
from .solver import RootCluster, SolverError, alpha_points, find_roots
from .winding import AnnularSector, InconclusiveRegion, count_in_contour, sector_census
from .checks import (
    FirstPointForecast,
    VerificationReport,
    Violation,
    points_census,
    predict_first_location,
    predict_next_sector,
    verify_first_location,
    verify_generic_interlacing,
    verify_k2_distribution,
    verify_real_power_case,
)
from .qseries import (
    Q_STAR,
    Q_TILDE,
    QSeriesSpec,
    disturbed_exp_coeffs,
    partial_theta_coeffs,
    rotate_half_i,
    sokal_poly_coeffs,
    split_even_odd,
    theta_split_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaPoint",
    "AnnularSector",
    "FirstPointForecast",
    "InconclusiveRegion",
    "PoleProximity",
    "Q_STAR",
    "Q_TILDE",
    "QSeriesSpec",
    "RootCluster",
    "SectorIndex",
    "SeriesFunction",
    "SolverError",
    "StructuredFunction",
    "VerificationReport",
    "Violation",
    "alpha_points",
    "alpha_polynomial",
    "classify_sector",
    "count_in_contour",
    "disturbed_exp_coeffs",
    "evaluate_G",
    "evaluate_R",
    "exponential_alpha_series",
    "find_roots",
    "line_side",
    "normalization_constant",
    "partial_theta_coeffs",
    "points_census",
    "predict_first_location",
    "predict_next_sector",
    "ray_indices",
    "real_direction_index",
    "rotate_half_i",
    "sector_census",
    "sokal_poly_coeffs",
    "solve_linear_congruence",
    "split_even_odd",
    "theta_split_check",
    "truncate_series",
    "unit_rotation",
    "verify_first_location",
    "verify_generic_interlacing",
    "verify_k2_distribution",
    "verify_real_power_case",
]
