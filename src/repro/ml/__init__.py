"""From-scratch supervised-learning substrate (trees, forest, metrics)."""

from repro.ml.tree import DecisionTreeClassifier, TreeStructure, LEAF
from repro.ml.forest import RandomForestClassifier
from repro.ml.compiled import (
    CompiledForest,
    CompiledTree,
    FusedProfileKernel,
    compile_forest,
    compile_tree,
)
from repro.ml.metrics import accuracy, train_test_split

__all__ = [
    "DecisionTreeClassifier",
    "TreeStructure",
    "LEAF",
    "RandomForestClassifier",
    "CompiledForest",
    "CompiledTree",
    "FusedProfileKernel",
    "compile_forest",
    "compile_tree",
    "accuracy",
    "train_test_split",
]
