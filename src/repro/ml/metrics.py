"""Classification metrics and data-splitting helpers for the surrogate."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact label matches."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(y_true == y_pred))


def train_test_split(
    x: np.ndarray,
    y: np.ndarray,
    test_fraction: float = 0.25,
    stratify: bool = True,
    random_state: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split (x, y) into train/test parts, optionally stratified by label.

    Returns ``(x_train, x_test, y_train, y_test)``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"x and y disagree on sample count: {x.shape[0]} vs {y.shape[0]}"
        )
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(random_state)
    test_mask = np.zeros(x.shape[0], dtype=bool)
    if stratify:
        for label in np.unique(y):
            members = np.flatnonzero(y == label)
            n_test = max(1, int(round(members.size * test_fraction)))
            if n_test >= members.size:
                n_test = members.size - 1 if members.size > 1 else 0
            chosen = rng.choice(members, size=n_test, replace=False)
            test_mask[chosen] = True
    else:
        n_test = max(1, int(round(x.shape[0] * test_fraction)))
        chosen = rng.choice(x.shape[0], size=n_test, replace=False)
        test_mask[chosen] = True
    return x[~test_mask], x[test_mask], y[~test_mask], y[test_mask]
