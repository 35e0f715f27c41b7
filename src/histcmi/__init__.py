"""Adaptive-histogram CMI estimation and independence testing for mixed data."""

from .causal import pc_stable_skeleton, precision_recall
from .citest import chi2_critical, citest_chi2, citest_sc
from .complexity import log_regret, model_cost, neg_log_likelihood, total_score
from .data_model import BinSet, assign_labels, build_grid, detect_discrete_points
from .datagen import ScenarioSpec, generate, ground_truth, replicate_seed, true_network_edges
from .errors import InputError, LabelingError, ModelError
from .estimators import (
    VariableGroup,
    cmi_estimate,
    continuous_entropy_terms,
    fit_columns,
    plugin_entropy,
    prepare_column,
)
from .hist1d import candidate_cuts
from .histmd import (
    ColumnStart,
    FitConfig,
    FitState,
    greedy_fit,
    init_discretization,
    optimal_histogram_1d,
    refine_dimension,
    start_column,
)

__version__ = "0.1.0"

__all__ = [
    "BinSet", "ColumnStart", "FitConfig", "FitState", "InputError", "LabelingError",
    "ModelError", "ScenarioSpec", "VariableGroup",
    "assign_labels", "build_grid", "candidate_cuts", "chi2_critical", "citest_chi2",
    "citest_sc", "cmi_estimate", "continuous_entropy_terms", "detect_discrete_points",
    "fit_columns", "generate", "greedy_fit", "ground_truth", "init_discretization",
    "log_regret", "model_cost", "neg_log_likelihood", "optimal_histogram_1d",
    "pc_stable_skeleton", "plugin_entropy", "precision_recall", "prepare_column",
    "refine_dimension", "replicate_seed", "start_column", "total_score",
    "true_network_edges",
]
