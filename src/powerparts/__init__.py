"""Exact counting, Khinchin-family evaluation, saddle-point asymptotics and
numerical diagnostics for partitions into k-th powers (unrestricted and
distinct parts)."""

from .bigcount import (CoeffTable, PartitionKind, count_partitions,
                       count_via_log_recurrence, log_integer,
                       verify_product_identity)
from .diagnostics import (DiagnosticsReport, QuadratureError,
                          bd_condition_check, clt_empirical_check,
                          euler_maclaurin_identity_check,
                          fulcrum_asymptotic_check, gaussianity_ratios,
                          run_all, run_suite, strong_gauss_l1, twl_bound_scan)
from .family import (FamilyPoint, SeriesTruncation, TruncationError,
                     char_fn_normalized, family_point, fulcrum,
                     pgf_modulus_ratio, pmf, sample)
from .saddle import (ConvergenceError, EstimateFormula, LogEstimate,
                     SaddleMethod, SaddleResult, bd_saddle, exact_saddle,
                     hayman_estimate, hr_closed_form, qk_closed_form,
                     second_order_logP)
from .special import ConstantSet, constants, riemann_zeta

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bigcount
    "CoeffTable", "PartitionKind", "count_partitions",
    "count_via_log_recurrence", "log_integer", "verify_product_identity",
    # special
    "ConstantSet", "constants", "riemann_zeta",
    # family
    "FamilyPoint", "SeriesTruncation", "TruncationError", "char_fn_normalized",
    "family_point", "fulcrum", "pgf_modulus_ratio", "pmf", "sample",
    # saddle
    "ConvergenceError", "EstimateFormula", "LogEstimate", "SaddleMethod",
    "SaddleResult", "bd_saddle", "exact_saddle", "hayman_estimate",
    "hr_closed_form", "qk_closed_form", "second_order_logP",
    # diagnostics
    "DiagnosticsReport", "QuadratureError", "bd_condition_check",
    "clt_empirical_check", "euler_maclaurin_identity_check",
    "fulcrum_asymptotic_check", "gaussianity_ratios", "run_all", "run_suite",
    "strong_gauss_l1", "twl_bound_scan",
]
