"""Explainable-ML substrate: exact Shapley, Kernel SHAP, TreeSHAP."""

from repro.explain.shapley import (
    coalition_value_fn,
    exact_shapley,
    exact_tree_shapley,
    tree_conditional_expectation,
)
from repro.explain.kernel import kernel_shap, shapley_kernel_weight
from repro.explain.treeshap import TreeExplainer, tree_shap_values
from repro.explain.beeswarm import (
    ClusterExplanation,
    ServiceImportance,
    explain_clusters,
)

__all__ = [
    "coalition_value_fn",
    "exact_shapley",
    "exact_tree_shapley",
    "tree_conditional_expectation",
    "kernel_shap",
    "shapley_kernel_weight",
    "TreeExplainer",
    "tree_shap_values",
    "ClusterExplanation",
    "ServiceImportance",
    "explain_clusters",
]
