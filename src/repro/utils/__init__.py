"""Shared utilities: deterministic RNG derivation, assignment, checks."""

from repro.utils.rng import derive_rng, derive_seed
from repro.utils.assignment import hungarian, align_labels
from repro.utils.checks import check_matrix, check_probability

__all__ = [
    "derive_rng",
    "derive_seed",
    "hungarian",
    "align_labels",
    "check_matrix",
    "check_probability",
]
