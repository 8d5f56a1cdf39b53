"""Input-validation helpers used across the library.

These raise early, with messages naming the offending argument, so that
errors surface at the public API boundary rather than deep inside numpy.
"""

from __future__ import annotations

import numpy as np


def check_matrix(value, name: str, *, ndim: int = 2, non_negative: bool = False) -> np.ndarray:
    """Coerce ``value`` to a float array and validate its shape.

    Raises ``ValueError`` on wrong dimensionality, NaN/inf entries, or
    (optionally) negative entries.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    if non_negative and np.any(arr < 0):
        raise ValueError(f"{name} contains negative entries")
    return arr


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1]."""
    val = float(value)
    if not np.isfinite(val) or not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return val
