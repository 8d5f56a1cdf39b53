"""CSV ingestion and export for operator-style traffic data.

The pipeline is data-source agnostic: anyone holding real per-antenna
traffic (in the aggregated, GDPR-compliant form the paper uses) can load
it here and run the identical analysis.  Two schemas are supported:

* **wide totals** — one row per antenna, one column per service, plus
  ``antenna_id`` / ``name`` metadata columns.  This is the matrix the
  clustering consumes.
* **long hourly** — one row per (antenna, service, hour) measurement:
  ``antenna_id,service,timestamp,traffic_mb`` — the shape an hourly
  export from a measurement platform naturally takes; it aggregates into
  the wide totals matrix.

Only the standard library's ``csv`` is used — no pandas dependency.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Metadata columns of the wide-totals schema, in order.
WIDE_META_COLUMNS = ("antenna_id", "name")

#: Header of the long hourly schema.
_HOURLY_COLUMNS = ["antenna_id", "service", "timestamp", "traffic_mb"]


def export_totals_csv(
    path,
    totals: np.ndarray,
    antenna_names: Sequence[str],
    service_names: Sequence[str],
) -> None:
    """Write a wide-totals CSV (one antenna per row, one service per column)."""
    matrix = np.asarray(totals, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"totals must be 2-D, got shape {matrix.shape}")
    if matrix.shape[0] != len(antenna_names):
        raise ValueError(
            f"{len(antenna_names)} antenna names for {matrix.shape[0]} rows"
        )
    if matrix.shape[1] != len(service_names):
        raise ValueError(
            f"{len(service_names)} service names for {matrix.shape[1]} columns"
        )
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(WIDE_META_COLUMNS) + list(service_names))
        for i, name in enumerate(antenna_names):
            writer.writerow([i, name] + [f"{v:.6f}" for v in matrix[i]])


def load_totals_csv(path) -> Tuple[List[str], List[str], np.ndarray]:
    """Read a wide-totals CSV.

    Returns:
        ``(antenna_names, service_names, totals)`` with totals as a float
        matrix in file row/column order.

    Raises:
        ValueError: on a malformed header, ragged rows, or non-numeric
            traffic cells.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        if tuple(header[: len(WIDE_META_COLUMNS)]) != WIDE_META_COLUMNS:
            raise ValueError(
                f"expected header to start with {WIDE_META_COLUMNS}, "
                f"got {header[:2]}"
            )
        service_names = header[len(WIDE_META_COLUMNS):]
        if not service_names:
            raise ValueError("no service columns in header")
        antenna_names: List[str] = []
        rows: List[List[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            antenna_names.append(row[1])
            try:
                rows.append([float(cell) for cell in row[2:]])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: non-numeric traffic value"
                ) from None
    if not rows:
        raise ValueError(f"{path} contains no antenna rows")
    return antenna_names, service_names, np.asarray(rows, dtype=float)


def export_hourly_csv(
    path,
    hourly: np.ndarray,
    hours: np.ndarray,
    antenna_ids: Sequence[int],
    service: str,
) -> None:
    """Write one service's hourly series in the long schema.

    Args:
        hourly: (n_antennas, n_hours) traffic in MB.
        hours: the n_hours timestamps (``datetime64[h]``).
        antenna_ids: ids matching the rows of ``hourly``.
        service: service name stamped on every row.
    """
    matrix = np.asarray(hourly, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"hourly must be 2-D, got {matrix.shape}")
    if matrix.shape != (len(antenna_ids), len(hours)):
        raise ValueError(
            f"hourly shape {matrix.shape} does not match "
            f"{len(antenna_ids)} antennas x {len(hours)} hours"
        )
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HOURLY_COLUMNS)
        for row, antenna_id in enumerate(antenna_ids):
            for col, stamp in enumerate(hours):
                writer.writerow(
                    [antenna_id, service, str(stamp), f"{matrix[row, col]:.6f}"]
                )


def _hourly_rows(
    path,
) -> Iterator[Tuple[int, int, str, np.datetime64, float]]:
    """``(line_no, antenna_id, service, hour, traffic_mb)`` per data row.

    Checks the header and each row's shape and cells, raising
    ``ValueError`` with the file and line number; a file with a header
    but no rows raises too.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        if header != _HOURLY_COLUMNS:
            raise ValueError(
                f"expected header {_HOURLY_COLUMNS}, got {header}"
            )
        line_no = 1
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}:{line_no}: expected 4 cells")
            try:
                record = (int(row[0]), row[1], np.datetime64(row[2], "h"),
                          float(row[3]))
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: malformed record"
                ) from None
            yield (line_no,) + record
    if line_no == 1:
        raise ValueError(f"{path} contains no measurements")


def load_hourly_csv(
    path,
) -> Tuple[np.ndarray, List[str], np.ndarray, np.ndarray]:
    """Read a long-schema hourly CSV and aggregate it.

    Returns:
        ``(antenna_ids, service_names, hours, tensor)`` where ``tensor``
        has shape (n_antennas, n_services, n_hours), with axes sorted by
        id / name / timestamp.  Duplicate measurements for the same cell
        are summed (measurement platforms emit partial records).
    """
    records = [row[1:] for row in _hourly_rows(path)]
    antenna_ids = np.array(sorted({r[0] for r in records}))
    service_names = sorted({r[1] for r in records})
    hours = np.array(sorted({r[2] for r in records}))
    a_index = {a: i for i, a in enumerate(antenna_ids.tolist())}
    s_index = {s: i for i, s in enumerate(service_names)}
    h_index = {h: i for i, h in enumerate(hours.tolist())}
    tensor = np.zeros((antenna_ids.size, len(service_names), hours.size))
    for antenna, service, stamp, value in records:
        tensor[a_index[antenna], s_index[service], h_index[stamp]] += value
    return antenna_ids, service_names, hours, tensor


def iter_hourly_csv(
    path, service_names: Sequence[str]
) -> Iterator[Tuple[np.datetime64, np.ndarray, np.ndarray]]:
    """Stream a long-schema hourly CSV one hour at a time (chunked read).

    Unlike :func:`load_hourly_csv`, which materializes the full tensor,
    this reads the file sequentially and holds only the current hour's
    rows in memory — the ingestion path for traces longer than RAM.  It
    requires the file to be *hour-ordered*: rows grouped by timestamp,
    timestamps strictly ascending (the natural order of a rolling
    measurement-platform export).  Duplicate (antenna, service) cells
    within an hour are summed.

    Args:
        path: CSV path with the ``antenna_id,service,timestamp,traffic_mb``
            schema.
        service_names: the output column order; every service appearing
            in the file must be listed here.

    Yields:
        ``(hour, antenna_ids, matrix)`` per hour — antenna ids sorted
        ascending, matrix of shape (n_reporting_antennas, n_services).

    Raises:
        ValueError: on malformed rows, unknown services, or timestamps
            that go backwards (sort the export first, or use
            :func:`load_hourly_csv`).
    """
    path = Path(path)
    names = [str(s) for s in service_names]
    s_index = {name: j for j, name in enumerate(names)}
    if len(s_index) != len(names):
        raise ValueError("service_names must be unique")

    def flush(hour, cells: Dict[int, np.ndarray]):
        ids = np.array(sorted(cells), dtype=np.int64)
        matrix = np.vstack([cells[a] for a in ids.tolist()])
        return hour, ids, matrix

    current_hour: Optional[np.datetime64] = None
    cells: Dict[int, np.ndarray] = {}
    for line_no, antenna, service, stamp, value in _hourly_rows(path):
        column = s_index.get(service)
        if column is None:
            raise ValueError(
                f"{path}:{line_no}: service {service!r} not in service_names"
            )
        if current_hour is None:
            current_hour = stamp
        elif stamp != current_hour:
            if stamp < current_hour:
                raise ValueError(
                    f"{path}:{line_no}: timestamp {stamp} goes backwards "
                    f"(file must be hour-ordered; see load_hourly_csv "
                    f"for unordered files)"
                )
            yield flush(current_hour, cells)
            current_hour = stamp
            cells = {}
        cell_row = cells.get(antenna)
        if cell_row is None:
            cell_row = np.zeros(len(names))
            cells[antenna] = cell_row
        cell_row[column] += value
    yield flush(current_hour, cells)


def totals_from_hourly(tensor: np.ndarray) -> np.ndarray:
    """Collapse an (antennas, services, hours) tensor to the totals matrix."""
    cube = np.asarray(tensor, dtype=float)
    if cube.ndim != 3:
        raise ValueError(f"tensor must be 3-D, got shape {cube.shape}")
    return cube.sum(axis=2)
