"""Numerical laboratory for absolute Cesaro summability of factored series.

The package splits into a float engine and an exact oracle.  The float
side materializes sequence families, computes Cesaro means and the
weighted power functionals built from them, and judges theorem hypotheses
at finite scale with explicit tolerances.  The oracle side replays the
identities and inequalities behind those theorems in rational arithmetic,
where failure is a counterexample rather than a residual.
"""

from .accumulation import compensated_cumsum
from .cesaro import (CesaroTransforms, cesaro_coefficients, cesaro_sigma,
                     cesaro_t, compute_transforms, w_sequence)
from .checker import (MAIN_CONDITIONS, THEOREM_A_CONDITIONS, ConditionRecord,
                      FamilyBundle, GrowthDiagnostic, GrowthVerdict,
                      HypothesisReport, Tolerances, check_main_theorem,
                      check_theorem_a, conclusion_diagnostic,
                      dyadic_checkpoints, growth_diagnostic)
from .experiment import (BUILTIN_FAMILY_NAMES, ConfigError, ExperimentConfig,
                         RunReport, builtin_family, default_majorant,
                         load_config, run)
from .functionals import (FunctionalTrace, ReductionIdentityReport,
                          WeightKind, WeightSpec, functional_partial_sums,
                          reduction_identity_check, weighted_power_trace)
from .monotonicity import (AlmostIncreasingWitness, QuasiMonotoneVerdict,
                           almost_increasing_diagnostic,
                           power_weight_monotonicity_check,
                           quasi_monotone_check)
from .oracle import (OracleSuiteReport, RationalSequence,
                     abel_identity_check, decomposition_bound_check,
                     lemma1_check, power_inequality_check,
                     rational_cesaro_coefficients, rational_cesaro_t,
                     run_abel_suite, run_all_suites, run_decomposition_suite,
                     run_lemma1_suite, run_power_inequality_suite)
from .rendering import render_number
from .sequences import (FAMILIES, CesaroParams, RealSequence, SequenceSpec,
                        forward_difference, materialize)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sequences
    "RealSequence", "SequenceSpec", "CesaroParams", "FAMILIES",
    "materialize", "forward_difference",
    # accumulation / rendering
    "compensated_cumsum", "render_number",
    # transforms
    "cesaro_coefficients", "cesaro_sigma", "cesaro_t", "w_sequence",
    "CesaroTransforms", "compute_transforms",
    # functionals
    "WeightKind", "WeightSpec", "FunctionalTrace", "weighted_power_trace",
    "functional_partial_sums", "ReductionIdentityReport",
    "reduction_identity_check",
    # sequence classes
    "QuasiMonotoneVerdict", "AlmostIncreasingWitness",
    "quasi_monotone_check", "almost_increasing_diagnostic",
    "power_weight_monotonicity_check",
    # checker
    "GrowthVerdict", "GrowthDiagnostic", "Tolerances", "dyadic_checkpoints",
    "growth_diagnostic", "FamilyBundle", "ConditionRecord",
    "HypothesisReport", "MAIN_CONDITIONS", "THEOREM_A_CONDITIONS",
    "check_main_theorem", "check_theorem_a", "conclusion_diagnostic",
    # oracle
    "RationalSequence", "rational_cesaro_coefficients", "rational_cesaro_t",
    "abel_identity_check", "lemma1_check", "decomposition_bound_check",
    "power_inequality_check", "OracleSuiteReport", "run_abel_suite",
    "run_lemma1_suite", "run_decomposition_suite",
    "run_power_inequality_suite", "run_all_suites",
    # experiment
    "ConfigError", "ExperimentConfig", "RunReport", "BUILTIN_FAMILY_NAMES",
    "builtin_family", "default_majorant", "load_config", "run",
]
