"""Revealed comparative advantage transforms (paper Section 4.1).

Given the N x M totals matrix ``T`` (antennas x services), the *revealed
comparative advantage* of service ``j`` at antenna ``i`` is (Eq. 1)::

    RCA[i, j] = (T[i, j] / T_i) / (T_j / T_tot)

with ``T_i`` the antenna's total, ``T_j`` the service's network-wide total
and ``T_tot`` the grand total.  RCA < 1 marks under-utilization and
RCA > 1 over-utilization, but over-utilization is unbounded; the *revealed
symmetric comparative advantage* (Eq. 2)::

    RSCA[i, j] = (RCA[i, j] - 1) / (RCA[i, j] + 1)

maps it into [-1, 1], balancing the two regimes.  Section 5.3 generalizes
RCA to outdoor antennas against the *indoor* reference mix (Eq. 5).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.checks import check_matrix


def rca_from_components(
    matrix: np.ndarray,
    antenna_totals: np.ndarray,
    service_totals: np.ndarray,
    grand_total: float,
) -> np.ndarray:
    """Eq. 1 from a totals matrix and externally maintained marginals.

    The marginals of a frozen matrix are simply its row/column/grand sums
    (that is what :func:`rca` passes), but an online consumer such as
    ``repro.stream`` maintains them additively across per-hour batches;
    keeping the arithmetic in one place guarantees the streamed transform
    matches the batch transform.

    Args:
        matrix: N x M non-negative traffic totals.
        antenna_totals: length-N per-antenna totals.  Antennas with zero
            total traffic are rejected — they have no utilization profile.
        service_totals: length-M network-wide per-service totals.
        grand_total: sum of all traffic; must be positive.

    Returns:
        N x M array of RCA values; entries are 0 where a service saw no
        traffic network-wide.
    """
    matrix = np.asarray(matrix, dtype=float)
    antenna_totals = np.asarray(antenna_totals, dtype=float)
    service_totals = np.asarray(service_totals, dtype=float)
    if antenna_totals.shape != (matrix.shape[0],):
        raise ValueError(
            f"antenna_totals must have shape ({matrix.shape[0]},), "
            f"got {antenna_totals.shape}"
        )
    if service_totals.shape != (matrix.shape[1],):
        raise ValueError(
            f"service_totals must have shape ({matrix.shape[1]},), "
            f"got {service_totals.shape}"
        )
    if np.any(antenna_totals == 0):
        silent = np.flatnonzero(antenna_totals == 0)[:5]
        raise ValueError(
            f"antennas with zero total traffic have no utilization profile "
            f"(first offending rows: {silent.tolist()})"
        )
    if not grand_total > 0:
        raise ValueError(f"grand_total must be positive, got {grand_total}")
    antenna_share = matrix / antenna_totals[:, None]
    service_share = (service_totals / grand_total)[None, :]
    # A service with zero network-wide traffic contributes nothing anywhere;
    # define its RCA as 0 (neutral under-utilization) rather than 0/0.
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(service_share > 0, antenna_share / service_share, 0.0)
    return result


def rca(totals: np.ndarray) -> np.ndarray:
    """Revealed comparative advantage per (antenna, service) — Eq. 1.

    Args:
        totals: N x M non-negative traffic totals.  Rows (antennas) with
            zero total traffic are rejected — an antenna that never carried
            traffic has no utilization profile.

    Returns:
        N x M array of RCA values; entries are 0 where a service saw no
        traffic at an antenna.
    """
    matrix = check_matrix(totals, "totals", non_negative=True)
    return rca_from_components(
        matrix, matrix.sum(axis=1), matrix.sum(axis=0), matrix.sum()
    )


def rsca_from_rca(rca_values: np.ndarray) -> np.ndarray:
    """Map RCA values onto the symmetric [-1, 1] index — Eq. 2."""
    values = np.asarray(rca_values, dtype=float)
    if np.any(values < 0):
        raise ValueError("RCA values must be non-negative")
    return (values - 1.0) / (values + 1.0)


def rsca(totals: np.ndarray) -> np.ndarray:
    """Revealed symmetric comparative advantage of a totals matrix.

    Composition of :func:`rca` and :func:`rsca_from_rca`; this is the
    feature matrix the paper clusters on.
    """
    return rsca_from_rca(rca(totals))


def reference_rsca(volumes: np.ndarray, service_totals: np.ndarray) -> np.ndarray:
    """RSCA of raw per-service volumes against frozen reference totals.

    The Eq. 5 generalization used by frozen profiles: each queried row's
    service shares are compared with a fixed reference network mix
    (``service_totals``), not with the query's own aggregate.

    Args:
        volumes: K x M non-negative raw traffic volumes.
        service_totals: length-M reference per-service totals.

    Raises:
        ValueError: on malformed volumes, a column-count mismatch, or a
            row total or reference total that is not finite (float
            overflow would otherwise turn every RSCA entry into -1).
    """
    matrix = check_matrix(volumes, "volumes", non_negative=True)
    if matrix.shape[1] != service_totals.shape[0]:
        raise ValueError(
            f"volumes have {matrix.shape[1]} columns, profile has "
            f"{service_totals.shape[0]} services"
        )
    with np.errstate(over="ignore"):
        row_totals = matrix.sum(axis=1)
        grand_total = float(service_totals.sum())
    if not np.all(np.isfinite(row_totals)):
        overflowed = np.flatnonzero(~np.isfinite(row_totals))[:5]
        raise ValueError(
            f"volume row totals overflow float (first offending rows: "
            f"{overflowed.tolist()})"
        )
    if not np.isfinite(grand_total):
        raise ValueError("reference service totals overflow float")
    return rsca_from_rca(
        rca_from_components(matrix, row_totals, service_totals, grand_total)
    )


def outdoor_rca(
    outdoor_totals: np.ndarray, indoor_totals: np.ndarray
) -> np.ndarray:
    """RCA of outdoor antennas against the indoor reference mix — Eq. 5.

    The per-antenna service shares of the *outdoor* antennas are compared
    with the service shares of the aggregate *indoor* traffic, so the
    resulting values measure how outdoor demand deviates from indoor
    demand (paper Section 5.3.1).

    Args:
        outdoor_totals: K x M totals of the outdoor antennas.
        indoor_totals: N x M totals of the indoor antennas (reference).

    Returns:
        K x M array of RCA values.
    """
    outdoor = check_matrix(outdoor_totals, "outdoor_totals", non_negative=True)
    indoor = check_matrix(indoor_totals, "indoor_totals", non_negative=True)
    if outdoor.shape[1] != indoor.shape[1]:
        raise ValueError(
            f"outdoor and indoor matrices disagree on the number of services: "
            f"{outdoor.shape[1]} != {indoor.shape[1]}"
        )
    outdoor_row_totals = outdoor.sum(axis=1, keepdims=True)
    if np.any(outdoor_row_totals == 0):
        raise ValueError("outdoor antennas with zero total traffic are not allowed")
    indoor_service_share = indoor.sum(axis=0) / indoor.sum()
    outdoor_share = outdoor / outdoor_row_totals
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(
            indoor_service_share[None, :] > 0,
            outdoor_share / indoor_service_share[None, :],
            0.0,
        )
    return result


def outdoor_rsca(
    outdoor_totals: np.ndarray, indoor_totals: np.ndarray
) -> np.ndarray:
    """RSCA of outdoor antennas against the indoor reference mix."""
    return rsca_from_rca(outdoor_rca(outdoor_totals, indoor_totals))


def normalized_traffic(totals: np.ndarray) -> np.ndarray:
    """Totals normalized by the single largest (antenna, service) load.

    This is the naive feature the paper's Fig. 1 shows to be unusable:
    most entries collapse near zero under the global-maximum scaling.
    """
    matrix = check_matrix(totals, "totals", non_negative=True)
    peak = matrix.max()
    if peak == 0:
        raise ValueError("totals matrix is identically zero")
    return matrix / peak


def feature_histograms(
    totals: np.ndarray,
    antenna_indices: Optional[np.ndarray] = None,
    bins: int = 40,
) -> dict:
    """Histogram data behind Fig. 1 for a set of sample antennas.

    Returns a dict with keys ``"normalized"``, ``"rca"``, ``"rsca"``, each
    mapping to ``(counts, bin_edges)`` over the selected antennas' feature
    values, plus ``"max_rca"`` (the largest observed RCA, which the paper
    quotes to illustrate the index's unbounded tail).
    """
    matrix = check_matrix(totals, "totals", non_negative=True)
    if antenna_indices is not None:
        matrix = matrix[np.asarray(antenna_indices, dtype=int)]
    norm = normalized_traffic(matrix)
    rca_values = rca(matrix)
    rsca_values = rsca_from_rca(rca_values)
    return {
        "normalized": np.histogram(norm.ravel(), bins=bins),
        "rca": np.histogram(rca_values.ravel(), bins=bins),
        "rsca": np.histogram(rsca_values.ravel(), bins=bins, range=(-1.0, 1.0)),
        "max_rca": float(rca_values.max()),
    }
