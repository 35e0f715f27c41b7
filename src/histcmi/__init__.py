"""Adaptive-histogram CMI estimation and independence testing for mixed data."""

from .causal import pc_stable_skeleton, precision_recall
from .citest import citest_chi2, citest_sc
from .datagen import ScenarioSpec, generate, ground_truth, replicate_seed, true_network_edges
from .errors import InputError, LabelingError, ModelError
from .estimators import VariableGroup, cmi_estimate
from .histmd import FitConfig

__version__ = "0.1.0"

__all__ = [
    "FitConfig", "InputError", "LabelingError", "ModelError", "ScenarioSpec",
    "VariableGroup", "citest_chi2", "citest_sc", "cmi_estimate", "generate",
    "ground_truth", "pc_stable_skeleton", "precision_recall", "replicate_seed",
    "true_network_edges",
]
