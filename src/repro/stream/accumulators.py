"""Bounded-memory online accumulators over an ordered hourly stream.

Three accumulators mirror the batch pipeline's data structures:

* :class:`RunningTotals` — the growing N x M T-matrix plus additively
  maintained marginals (per-antenna, per-service and grand totals), in
  O(N x M) memory regardless of stream length;
* :class:`IncrementalRSCA` — :class:`RunningTotals` extended with the
  Eq. 1/2 transforms, computed through the same
  :func:`~repro.core.rca.rca_from_components` kernel the batch
  :func:`~repro.core.rca.rca` uses, so streamed features match batch
  features on identical traffic;
* :class:`SlidingWindowTensor` — a ring buffer holding the last W hours
  of per-antenna traffic (the recent-history tensor temporal analyses
  and short-horizon forecasts consume), in O(N x M x W) memory.

All accumulators accept batches in strictly increasing hour order,
register previously unseen antennas on the fly (rows appear in
first-seen order), and serialize their complete state through
``state_dict()`` / ``from_state()`` so ingestion survives restarts — see
``repro.stream.checkpoint``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.rca import rca_from_components, rsca_from_rca
from repro.stream.batch import HourlyBatch

#: Initial antenna capacity of the growing row tables.
_INITIAL_CAPACITY = 64


def sorted_lookup(
    sorted_ids: np.ndarray, sorted_rows: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """Row of each id in a registry sorted by id (stably, so equal ids
    keep row order), or -1 where absent; a repeated id maps to its last
    row, as a dict built in row order would."""
    pos = np.searchsorted(sorted_ids, ids, side="right") - 1
    found = pos >= 0
    found[found] = sorted_ids[pos[found]] == ids[found]
    rows = np.full(ids.size, -1, dtype=np.intp)
    rows[found] = sorted_rows[pos[found]]
    return rows


class _AntennaTable:
    """Shared machinery: antenna-id -> row registry with geometric growth.

    Subclasses store per-antenna arrays with a capacity dimension and
    implement ``_grow_arrays`` to reallocate them when the registry
    outgrows the current capacity.
    """

    def __init__(self, service_names: Sequence[str]) -> None:
        names = tuple(str(s) for s in service_names)
        if not names:
            raise ValueError("at least one service is required")
        if len(set(names)) != len(names):
            raise ValueError("service names must be unique")
        self.service_names: Tuple[str, ...] = names
        self._set_ids(np.empty(0, dtype=np.int64))
        self._capacity = 0
        self.hours_seen = 0
        self.last_hour: Optional[np.datetime64] = None

    # -- to be provided by subclasses ----------------------------------
    def _grow_arrays(self, new_capacity: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------

    @property
    def n_services(self) -> int:
        """Number of service columns M."""
        return len(self.service_names)

    @property
    def n_antennas(self) -> int:
        """Number of distinct antennas seen so far."""
        return self._ids.size

    def antenna_ids(self) -> np.ndarray:
        """Ids of the antennas seen so far, in first-seen (row) order."""
        return self._ids.copy()

    def row_of(self, antenna_id: int) -> int:
        """Row index of one antenna; raises ``KeyError`` if unseen."""
        rows = sorted_lookup(self._sorted_ids, self._sorted_rows,
                             np.array([antenna_id], dtype=np.int64))
        if rows[0] < 0:
            raise KeyError(int(antenna_id))
        return int(rows[0])

    def _check_batch(self, batch: HourlyBatch) -> None:
        if batch.service_names != self.service_names:
            raise ValueError(
                f"batch service columns {batch.service_names[:3]}... do not "
                f"match accumulator columns {self.service_names[:3]}..."
            )
        if self.last_hour is not None and batch.hour <= self.last_hour:
            raise ValueError(
                f"batches must arrive in increasing hour order: "
                f"got {batch.hour} after {self.last_hour}"
            )

    def _set_ids(self, ids: np.ndarray) -> None:
        """Install the row-ordered id registry and its sorted index."""
        self._ids = np.asarray(ids, dtype=np.int64).copy()
        self._sorted_rows = np.argsort(self._ids, kind="stable")
        self._sorted_ids = self._ids[self._sorted_rows]

    def _rows_for(self, antenna_ids: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """Row indices for a batch's antennas, registering new ones.

        Unseen ids take the next rows in batch order.  Capacity grows at
        most once per batch, to at least double and at least the rows this
        batch needs, so a burst of new antennas costs one reallocation
        rather than one per doubling.
        """
        rows = sorted_lookup(self._sorted_ids, self._sorted_rows, antenna_ids)
        unseen = rows < 0
        new_ids = antenna_ids[unseen]
        if new_ids.size:
            rows[unseen] = self.n_antennas + np.arange(new_ids.size)
            self._set_ids(np.concatenate([self._ids, new_ids]))
        if self.n_antennas > self._capacity:
            new_capacity = max(
                _INITIAL_CAPACITY, 2 * self._capacity, self.n_antennas
            )
            self._grow_arrays(new_capacity)
            self._capacity = new_capacity
        return rows, new_ids.tolist()

    def _restore_registry(
        self, ids: np.ndarray, hours_seen: int, last_hour: Optional[np.datetime64]
    ) -> None:
        self._set_ids(ids)
        self.hours_seen = int(hours_seen)
        self.last_hour = last_hour


class RunningTotals(_AntennaTable):
    """Online T-matrix: per-antenna, per-service traffic totals.

    Numerically, the accumulated matrix equals the hour-axis sum of the
    replayed tensor (additions happen in the same hour order), and the
    marginals equal the matrix's row/column/grand sums up to float
    summation-order effects far below any analysis tolerance.
    """

    def __init__(self, service_names: Sequence[str]) -> None:
        super().__init__(service_names)
        m = self.n_services
        self._matrix = np.zeros((0, m))
        self._row_totals = np.zeros(0)
        self._col_totals = np.zeros(m)
        self._grand_total = 0.0

    def _grow_arrays(self, new_capacity: int) -> None:
        grown = np.zeros((new_capacity, self.n_services))
        grown[: self._matrix.shape[0]] = self._matrix
        self._matrix = grown
        grown_rows = np.zeros(new_capacity)
        grown_rows[: self._row_totals.shape[0]] = self._row_totals
        self._row_totals = grown_rows

    def update(self, batch: HourlyBatch) -> List[int]:
        """Fold one batch into the totals.

        Returns:
            ids of antennas first seen in this batch.
        """
        self._check_batch(batch)
        rows, new_ids = self._rows_for(batch.antenna_ids)
        self._matrix[rows] += batch.traffic
        self._row_totals[rows] += batch.traffic.sum(axis=1)
        self._col_totals += batch.traffic.sum(axis=0)
        self._grand_total += float(batch.traffic.sum())
        self.hours_seen += 1
        self.last_hour = batch.hour
        return new_ids

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def totals(self) -> np.ndarray:
        """Copy of the N x M totals accumulated so far (first-seen order)."""
        return self._matrix[: self.n_antennas].copy()

    def row_totals(self) -> np.ndarray:
        """Per-antenna traffic totals (first-seen order)."""
        return self._row_totals[: self.n_antennas].copy()

    def col_totals(self) -> np.ndarray:
        """Network-wide per-service traffic totals."""
        return self._col_totals.copy()

    @property
    def grand_total(self) -> float:
        """All traffic ingested so far, in MB."""
        return self._grand_total

    def nonzero_mask(self) -> np.ndarray:
        """Mask of antennas that have carried any traffic so far."""
        return self._row_totals[: self.n_antennas] > 0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete state as a flat dict of arrays and scalars."""
        n = self.n_antennas
        return {
            "service_names": np.array(self.service_names, dtype=str),
            "ids": self.antenna_ids(),
            "matrix": self._matrix[:n].copy(),
            "row_totals": self._row_totals[:n].copy(),
            "col_totals": self._col_totals.copy(),
            "grand_total": float(self._grand_total),
            "hours_seen": int(self.hours_seen),
            "last_hour": "" if self.last_hour is None else str(self.last_hour),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "RunningTotals":
        """Rebuild an accumulator whose future updates continue exactly."""
        acc = cls([str(s) for s in np.asarray(state["service_names"])])
        ids = np.asarray(state["ids"], dtype=np.int64)
        matrix = np.asarray(state["matrix"], dtype=float)
        acc._capacity = max(matrix.shape[0], 0)
        acc._matrix = matrix.copy()
        acc._row_totals = np.asarray(state["row_totals"], dtype=float).copy()
        acc._col_totals = np.asarray(state["col_totals"], dtype=float).copy()
        acc._grand_total = float(state["grand_total"])
        last = str(state["last_hour"])
        acc._restore_registry(
            ids,
            int(state["hours_seen"]),
            np.datetime64(last, "h") if last else None,
        )
        return acc


class IncrementalRSCA(RunningTotals):
    """Running totals with the paper's Eq. 1/2 transforms on top.

    The transforms run through the exact same arithmetic kernel as the
    batch pipeline (:func:`repro.core.rca.rca_from_components`), fed with
    the additively maintained marginals, so a full-stream replay
    reproduces ``rsca(dataset.totals)`` to float-summation accuracy.
    """

    def rca(self) -> np.ndarray:
        """RCA of all antennas seen so far; requires every row non-zero."""
        n = self.n_antennas
        return rca_from_components(
            self._matrix[:n],
            self._row_totals[:n],
            self._col_totals,
            self._grand_total,
        )

    def rsca(self) -> np.ndarray:
        """RSCA of all antennas seen so far; requires every row non-zero."""
        return rsca_from_rca(self.rca())

    def rsca_nonzero(self) -> Tuple[np.ndarray, np.ndarray]:
        """RSCA restricted to antennas that have carried traffic.

        Zero rows carry no traffic, so dropping them leaves the service
        and grand totals unchanged — the remaining rows' features are
        identical to what a batch transform of the same rows yields.

        Returns:
            ``(antenna_ids, features)`` for the non-zero antennas, in
            first-seen order.
        """
        mask = self.nonzero_mask()
        if not np.any(mask):
            raise ValueError("no antenna has carried traffic yet")
        n = self.n_antennas
        features = rsca_from_rca(
            rca_from_components(
                self._matrix[:n][mask],
                self._row_totals[:n][mask],
                self._col_totals,
                self._grand_total,
            )
        )
        return self.antenna_ids()[mask], features


class SlidingWindowTensor(_AntennaTable):
    """Ring buffer of the last W hourly traffic matrices.

    Holds the (antennas, services, W) recent-history tensor in bounded
    memory: each ingested hour occupies one ring slot, evicting the
    oldest hour once W hours are resident.  The ring is stored slot-major,
    as ``(W, capacity, M)``, so an hour is written as one contiguous block
    and slots never written stay unallocated zero pages.
    """

    def __init__(self, service_names: Sequence[str], window_hours: int) -> None:
        super().__init__(service_names)
        if window_hours < 1:
            raise ValueError(f"window_hours must be >= 1, got {window_hours}")
        self.window_hours = int(window_hours)
        self._buffer = np.zeros((self.window_hours, 0, self.n_services))
        self._slot_hours: List[Optional[np.datetime64]] = (
            [None] * self.window_hours
        )
        self._start = 0  # ring index of the oldest resident hour
        self._count = 0  # resident hours (<= window_hours)

    def _grow_arrays(self, new_capacity: int) -> None:
        grown = np.zeros((self.window_hours, new_capacity, self.n_services))
        slots = self._slots()
        grown[slots, : self._buffer.shape[1]] = self._buffer[slots]
        self._buffer = grown

    def update(self, batch: HourlyBatch) -> List[int]:
        """Insert one hour, evicting the oldest when the window is full."""
        self._check_batch(batch)
        rows, new_ids = self._rows_for(batch.antenna_ids)
        if self._count == self.window_hours:
            slot = self._start
            self._start = (self._start + 1) % self.window_hours
        else:
            slot = (self._start + self._count) % self.window_hours
            self._count += 1
        self._buffer[slot, : self.n_antennas] = 0.0
        self._buffer[slot, rows] = batch.traffic
        self._slot_hours[slot] = batch.hour
        self.hours_seen += 1
        self.last_hour = batch.hour
        return new_ids

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def n_resident_hours(self) -> int:
        """Hours currently held in the window (<= ``window_hours``)."""
        return self._count

    def _slots(self) -> List[int]:
        return [
            (self._start + k) % self.window_hours for k in range(self._count)
        ]

    def hours(self) -> np.ndarray:
        """The resident hours, oldest first."""
        return np.array(
            [self._slot_hours[s] for s in self._slots()], dtype="datetime64[h]"
        )

    def tensor(self) -> np.ndarray:
        """(antennas, services, resident-hours) tensor, oldest hour first."""
        window = self._buffer[self._slots(), : self.n_antennas]
        return np.ascontiguousarray(window.transpose(1, 2, 0))

    def window_totals(self) -> np.ndarray:
        """N x M totals over the resident window."""
        return self.tensor().sum(axis=2)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete state, with the ring normalized to oldest-first."""
        return {
            "service_names": np.array(self.service_names, dtype=str),
            "ids": self.antenna_ids(),
            "window_hours": int(self.window_hours),
            "buffer": self.tensor(),
            "slot_hours": np.array([str(h) for h in self.hours()], dtype=str),
            "hours_seen": int(self.hours_seen),
            "last_hour": "" if self.last_hour is None else str(self.last_hour),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SlidingWindowTensor":
        """Rebuild a window whose future updates continue exactly."""
        acc = cls(
            [str(s) for s in np.asarray(state["service_names"])],
            int(state["window_hours"]),
        )
        ids = np.asarray(state["ids"], dtype=np.int64)
        resident = np.asarray(state["buffer"], dtype=float)
        n, m, count = resident.shape
        acc._capacity = n
        acc._buffer = np.zeros((acc.window_hours, n, m))
        acc._buffer[:count] = resident.transpose(2, 0, 1)
        stamps = [np.datetime64(str(h), "h")
                  for h in np.asarray(state["slot_hours"])]
        acc._slot_hours = list(stamps) + [None] * (acc.window_hours - count)
        acc._start = 0
        acc._count = count
        last = str(state["last_hour"])
        acc._restore_registry(
            ids,
            int(state["hours_seen"]),
            np.datetime64(last, "h") if last else None,
        )
        return acc
