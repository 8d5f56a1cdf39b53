"""Exact Shapley values by subset enumeration (paper Eq. 4).

The exact estimator enumerates all feature coalitions, so it is only
feasible for small M; it serves as the ground truth against which the
Kernel SHAP and TreeSHAP approximations are validated (the paper's local
accuracy / missingness / consistency properties pin the attributions to
exactly these values).

Feature "removal" follows the paper's Section 5.1.1 remark: an excluded
feature's value is replaced by background values drawn from the training
data, and the model response averaged over the background sample.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.utils.checks import check_matrix

ModelFn = Callable[[np.ndarray], np.ndarray]


def coalition_value_fn(
    model: ModelFn, x: np.ndarray, background: np.ndarray
) -> Callable[[Sequence[int]], float]:
    """Build v(S): expected model output with only features S fixed to x.

    Features outside ``S`` take the background rows' values; the model is
    evaluated on every completed row and averaged.
    """
    x = np.asarray(x, dtype=float).ravel()
    background = check_matrix(background, "background")
    if background.shape[1] != x.size:
        raise ValueError(
            f"background has {background.shape[1]} features, x has {x.size}"
        )

    def value(subset: Sequence[int]) -> float:
        rows = background.copy()
        idx = list(subset)
        if idx:
            rows[:, idx] = x[idx]
        return float(np.mean(model(rows)))

    return value


def exact_shapley(
    model: ModelFn,
    x: np.ndarray,
    background: np.ndarray,
    max_features: int = 16,
) -> np.ndarray:
    """Exact Shapley values of every feature for one instance — Eq. 4.

    Args:
        model: maps a (rows, M) matrix to scalar outputs per row.
        x: the instance to explain (length M).
        background: training-data sample used for feature removal.
        max_features: safety cap — enumeration is O(2^M).

    Returns:
        length-M array of attributions; they satisfy local accuracy:
        ``sum(phi) = f(x) - E_background[f]``.
    """
    x = np.asarray(x, dtype=float).ravel()
    m = x.size
    if m > max_features:
        raise ValueError(
            f"exact enumeration over {m} features requires 2^{m} evaluations; "
            f"raise max_features explicitly if that is intended"
        )
    value = coalition_value_fn(model, x, background)
    # Precompute v(S) for all subsets, keyed by frozenset bitmask.
    values = {}
    features = list(range(m))
    for size in range(m + 1):
        for subset in combinations(features, size):
            mask = 0
            for f in subset:
                mask |= 1 << f
            values[mask] = value(subset)
    phi = np.zeros(m)
    fact = [factorial(i) for i in range(m + 1)]
    for i in features:
        others = [f for f in features if f != i]
        for size in range(m):
            weight = fact[size] * fact[m - size - 1] / fact[m]
            for subset in combinations(others, size):
                mask = 0
                for f in subset:
                    mask |= 1 << f
                phi[i] += weight * (values[mask | (1 << i)] - values[mask])
    return phi
