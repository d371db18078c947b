"""Composition accounting for bounded-range differential-privacy mechanisms.

Provides exact optimal nonadaptive composition, certified lower bounds for
the adaptive optimum, efficiently computable adaptive upper bounds, plain
DP baselines, and an oracle validation suite, with a CLI front end.
"""

from .adaptive import (AdaptiveLowerBound, AdaptiveSolverConfig, GapCertificate,
                       StrategyTree, adaptive_edge_high, adaptive_edge_low,
                       delta_adaptive_lb, gap_certificate)
from .bounds import (EpsilonResult, LambdaSearch, UBoundResult, UFunctionKind,
                     basic_composition, generic_delta_from_u, h_eps, maxkl,
                     mgf_delta, mgf_epsilon, optkl_epsilon, quadratic_epsilon,
                     u_function)
from .errors import CapError, UnreachableTargetError
from .grr import (ExpMechResult, FiniteMechanismPair, QualityScoreTable, br_witness,
                  counting_query_mech, cq_t_value, exp_mech_probs, grr_probs,
                  quality_range, quality_sensitivity)
from .nonadaptive import (Candidate, OptResult, candidate_points, delta_het_fixed_t,
                          delta_hom_fixed_t, delta_opt_nonadaptive_hom, df_ell_dt,
                          dp_optcomp_het, dp_optcomp_hom, f_ell)
from .validation import (BruteForceResult, CheckResult, SimulationReport,
                         brute_force_nonadaptive, finite_diff_check, hockey_stick,
                         run_checks, simulate_adaptive_game)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveLowerBound", "AdaptiveSolverConfig", "BruteForceResult", "Candidate",
    "CapError", "CheckResult", "EpsilonResult", "ExpMechResult",
    "FiniteMechanismPair", "GapCertificate", "LambdaSearch",
    "OptResult", "QualityScoreTable", "SimulationReport", "StrategyTree",
    "UBoundResult", "UFunctionKind", "UnreachableTargetError",
    "adaptive_edge_high", "adaptive_edge_low", "basic_composition", "br_witness",
    "brute_force_nonadaptive", "candidate_points", "counting_query_mech",
    "cq_t_value", "delta_adaptive_lb", "delta_het_fixed_t", "delta_hom_fixed_t",
    "delta_opt_nonadaptive_hom", "df_ell_dt", "dp_optcomp_het", "dp_optcomp_hom",
    "exp_mech_probs", "f_ell", "finite_diff_check", "gap_certificate",
    "generic_delta_from_u", "grr_probs", "h_eps", "hockey_stick", "maxkl",
    "mgf_delta", "mgf_epsilon", "optkl_epsilon", "quadratic_epsilon", "quality_range",
    "quality_sensitivity", "run_checks", "simulate_adaptive_game", "u_function",
]
