"""Stochastic-order certification for extreme order statistics of
heterogeneous Weibull-G and Gompertz-Makeham component systems.

The package layers as follows: lifetime models (``models``), series and
parallel systems over them (``systems``), majorization and T-transform
algebra (``majorization``), grid-based order certification (``orders``),
the randomized claim bench (``bench``), inverse-transform sampling
checks (``montecarlo``), and the command-line front end (``cli``).
"""

from .bench import (
    SCENARIO_IDS,
    BenchReport,
    CurveSample,
    InstanceFailure,
    TheoremScenario,
    counterexample_probe,
    run_scenario,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EvaluationDomainError,
    GenerationError,
    StochordError,
)
from .majorization import (
    GENERATOR_KINDS,
    MAJORIZATION_KINDS,
    GeneratedPair,
    MajorizationSummary,
    TTransform,
    apply_t_transform,
    as_param_matrix,
    chain_majorize_solve_2x2,
    doubly_stochastic_check,
    generate_hypothesis_pair,
    implication_suite,
    majorize_check,
    pn_membership,
)
from .models import (
    BASELINE_KINDS,
    EXPONENTIAL_STANDARD,
    Baseline,
    GompertzMakeham,
    WeibullG,
)
from .montecarlo import (
    SampleBatch,
    ks_distance,
    sample,
    sample_system,
)
from .orders import (
    ORDERS,
    Grid,
    OrderVerdict,
    SchurDiagnostics,
    certify,
    certify_hr,
    certify_lr,
    certify_rh,
    certify_st,
    h1,
    h2,
    reversed_hazard_weight,
    schur_condition_check,
)
from .systems import (
    STRUCTURES,
    SystemSpec,
    lambda_aggregate_sf,
    parallel_reversed_hazard_factored,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS",
    "Baseline",
    "BenchReport",
    "ConfigError",
    "ConvergenceError",
    "CurveSample",
    "EXPONENTIAL_STANDARD",
    "EvaluationDomainError",
    "GENERATOR_KINDS",
    "GeneratedPair",
    "GenerationError",
    "GompertzMakeham",
    "Grid",
    "InstanceFailure",
    "MAJORIZATION_KINDS",
    "MajorizationSummary",
    "ORDERS",
    "OrderVerdict",
    "SCENARIO_IDS",
    "STRUCTURES",
    "SampleBatch",
    "SchurDiagnostics",
    "StochordError",
    "SystemSpec",
    "TTransform",
    "TheoremScenario",
    "WeibullG",
    "apply_t_transform",
    "as_param_matrix",
    "certify",
    "certify_hr",
    "certify_lr",
    "certify_rh",
    "certify_st",
    "chain_majorize_solve_2x2",
    "counterexample_probe",
    "doubly_stochastic_check",
    "generate_hypothesis_pair",
    "h1",
    "h2",
    "implication_suite",
    "ks_distance",
    "lambda_aggregate_sf",
    "majorize_check",
    "parallel_reversed_hazard_factored",
    "pn_membership",
    "reversed_hazard_weight",
    "run_scenario",
    "sample",
    "sample_system",
    "schur_condition_check",
]
