"""Explainable-ML substrate: exact Shapley, Kernel SHAP, TreeSHAP."""

from repro.explain.shapley import coalition_value_fn, exact_shapley
from repro.explain.kernel import kernel_shap, shapley_kernel_weight
from repro.explain.treeshap import TreeExplainer
from repro.explain.beeswarm import (
    ClusterExplanation,
    ServiceImportance,
    explain_clusters,
)

__all__ = [
    "coalition_value_fn",
    "exact_shapley",
    "kernel_shap",
    "shapley_kernel_weight",
    "TreeExplainer",
    "ClusterExplanation",
    "ServiceImportance",
    "explain_clusters",
]
