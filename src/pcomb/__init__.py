"""Combining independent discrete p-values.

Discrete test statistics give p-values supported on finitely many atoms;
plugging them into classical combination tests (Fisher, Pearson, George,
Stouffer, Edgington) with continuous null distributions gives distorted
Type I error.  This package adjusts each transformed p-value to the value
closest in 2-Wasserstein distance to its continuous analogue, tests the
adjusted sum against a moment-matched Gamma or Normal surrogate null, and
provides variance-ratio and scaled-distance diagnostics for choosing
among the methods, plus a Monte-Carlo harness and an exact small-n
convolution oracle for verification.
"""

from .adjust import (METHODS, AdjustedStatistic, MethodSpec, adjust,
                     adjust_generic, method_spec)
from .combine import (CombinedResult, SurrogateDist, combine,
                      combine_observations, surrogate)
from .distributions import (FAMILIES, SIDES, DiscretePValueDist, StatisticModel,
                            custom_pvalue_distribution, make_statistic_model,
                            pvalue_distribution)
from .metrics import (MethodMetrics, MetricsReport, rank_methods, scaled_w2,
                      variance_ratio, w2_discrete_continuous, w2_lower_bound)
from .simulate import (LRT_GEOMETRIC, ExperimentReport, ExperimentRow,
                       GeneExampleReport, Scenario, binomial_scenario,
                       circular_scenario, exact_convolution, gene_example,
                       geometric_noniid_scenario, geometric_scenario,
                       power_experiment, sample_pvalues, scenario_from_json,
                       synthetic_scenario, type1_experiment)

__version__ = "0.1.0"

__all__ = [
    "METHODS", "FAMILIES", "SIDES", "LRT_GEOMETRIC",
    "StatisticModel", "DiscretePValueDist", "AdjustedStatistic", "MethodSpec",
    "SurrogateDist", "CombinedResult", "MethodMetrics", "MetricsReport",
    "Scenario", "ExperimentReport", "ExperimentRow", "GeneExampleReport",
    "make_statistic_model", "pvalue_distribution", "custom_pvalue_distribution",
    "adjust", "adjust_generic", "method_spec",
    "surrogate", "combine", "combine_observations",
    "w2_discrete_continuous", "scaled_w2",
    "variance_ratio", "w2_lower_bound", "rank_methods",
    "synthetic_scenario", "binomial_scenario", "geometric_scenario",
    "geometric_noniid_scenario", "circular_scenario", "scenario_from_json",
    "sample_pvalues", "type1_experiment", "power_experiment",
    "exact_convolution", "gene_example",
]
