"""Adaptive-histogram CMI estimation and independence testing for mixed data."""

from .causal import Skeleton, pc_stable_skeleton, precision_recall
from .citest import CITestResult, chi2_critical, citest_chi2, citest_sc
from .complexity import ScoreBreakdown, log_regret, model_cost, neg_log_likelihood, total_score
from .data_model import (
    BinSet,
    Grid,
    MixedColumn,
    assign_labels,
    build_grid,
    detect_discrete_points,
)
from .datagen import (
    Dataset,
    ScenarioSpec,
    generate,
    ground_truth,
    replicate_seed,
    true_network_edges,
)
from .errors import DegenerateColumnError, InputError, LabelingError, ModelError
from .estimators import (
    EstimateResult,
    VariableGroup,
    cmi_estimate,
    continuous_entropy_terms,
    plugin_entropy,
)
from .hist1d import CandidateCuts, candidate_cuts, optimal_histogram_1d
from .histmd import FitConfig, FitResult, FitTrace, greedy_fit, init_discretization, refine_dimension

__version__ = "0.1.0"

__all__ = [
    "BinSet", "CandidateCuts", "CITestResult", "Dataset", "DegenerateColumnError",
    "EstimateResult", "FitConfig", "FitResult", "FitTrace", "Grid", "InputError",
    "LabelingError", "MixedColumn", "ModelError",
    "ScenarioSpec", "ScoreBreakdown", "Skeleton", "VariableGroup",
    "assign_labels", "build_grid", "candidate_cuts", "chi2_critical", "citest_chi2",
    "citest_sc", "cmi_estimate", "continuous_entropy_terms", "detect_discrete_points",
    "generate", "greedy_fit", "ground_truth", "init_discretization", "log_regret",
    "model_cost", "neg_log_likelihood", "optimal_histogram_1d", "pc_stable_skeleton",
    "plugin_entropy", "precision_recall", "refine_dimension", "replicate_seed",
    "total_score", "true_network_edges",
]
