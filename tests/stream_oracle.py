"""Reference stream accumulators, kept as test oracles.

``repro.stream.accumulators`` finds antenna rows by binary search over a
sorted id array and stores the sliding window slot-major, as
``(W, capacity, M)``.  These are the straightforward forms they replaced:
a dict registry filled by a per-id Python loop, and a ring that keeps each
hour in the last axis of an ``(N, M, W)`` buffer.  The fast forms must
equal them exactly, state dicts included, so a checkpoint written by
either restores into the other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stream.batch import HourlyBatch

_INITIAL_CAPACITY = 64


class _AntennaTable:
    """Antenna-id -> row dict with geometric growth of the row arrays."""

    def __init__(self, service_names: Sequence[str]) -> None:
        self.service_names: Tuple[str, ...] = tuple(str(s) for s in service_names)
        self._ids: List[int] = []
        self._index: Dict[int, int] = {}
        self._capacity = 0
        self.hours_seen = 0
        self.last_hour: Optional[np.datetime64] = None

    def _grow_arrays(self, new_capacity: int) -> None:
        raise NotImplementedError

    @property
    def n_services(self) -> int:
        return len(self.service_names)

    @property
    def n_antennas(self) -> int:
        return len(self._ids)

    def antenna_ids(self) -> np.ndarray:
        return np.array(self._ids, dtype=np.int64)

    def row_of(self, antenna_id: int) -> int:
        return self._index[int(antenna_id)]

    def _check_batch(self, batch: HourlyBatch) -> None:
        if batch.service_names != self.service_names:
            raise ValueError("service columns differ")
        if self.last_hour is not None and batch.hour <= self.last_hour:
            raise ValueError("batches must arrive in increasing hour order")

    def _rows_for(self, antenna_ids: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        rows = np.empty(antenna_ids.size, dtype=np.intp)
        new_ids: List[int] = []
        for k, raw in enumerate(antenna_ids):
            aid = int(raw)
            row = self._index.get(aid)
            if row is None:
                row = len(self._ids)
                self._index[aid] = row
                self._ids.append(aid)
                new_ids.append(aid)
            rows[k] = row
        if len(self._ids) > self._capacity:
            new_capacity = max(
                _INITIAL_CAPACITY, 2 * self._capacity, len(self._ids)
            )
            self._grow_arrays(new_capacity)
            self._capacity = new_capacity
        return rows, new_ids

    def _restore_registry(
        self, ids: np.ndarray, hours_seen: int, last_hour: Optional[np.datetime64]
    ) -> None:
        self._ids = [int(a) for a in ids]
        self._index = {aid: row for row, aid in enumerate(self._ids)}
        self.hours_seen = int(hours_seen)
        self.last_hour = last_hour


def _last_hour(state: Dict[str, object]) -> Optional[np.datetime64]:
    last = str(state["last_hour"])
    return np.datetime64(last, "h") if last else None


class RunningTotals(_AntennaTable):
    """Online T-matrix and marginals on the dict registry."""

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
        self._check_batch(batch)
        rows, new_ids = self._rows_for(batch.antenna_ids)
        self._matrix[rows] += batch.traffic
        self._row_totals[rows] += batch.traffic.sum(axis=1)
        self._col_totals += batch.traffic.sum(axis=0)
        self._grand_total += float(batch.traffic.sum())
        self.hours_seen += 1
        self.last_hour = batch.hour
        return new_ids

    def state_dict(self) -> Dict[str, object]:
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
        acc = cls([str(s) for s in np.asarray(state["service_names"])])
        matrix = np.asarray(state["matrix"], dtype=float)
        acc._capacity = matrix.shape[0]
        acc._matrix = matrix.copy()
        acc._row_totals = np.asarray(state["row_totals"], dtype=float).copy()
        acc._col_totals = np.asarray(state["col_totals"], dtype=float).copy()
        acc._grand_total = float(state["grand_total"])
        acc._restore_registry(np.asarray(state["ids"], dtype=np.int64),
                              int(state["hours_seen"]), _last_hour(state))
        return acc


class SlidingWindowTensor(_AntennaTable):
    """Ring of the last W hours, each hour in the last axis of (N, M, W)."""

    def __init__(self, service_names: Sequence[str], window_hours: int) -> None:
        super().__init__(service_names)
        self.window_hours = int(window_hours)
        self._buffer = np.zeros((0, self.n_services, self.window_hours))
        self._slot_hours: List[Optional[np.datetime64]] = (
            [None] * self.window_hours
        )
        self._start = 0
        self._count = 0

    def _grow_arrays(self, new_capacity: int) -> None:
        grown = np.zeros((new_capacity, self.n_services, self.window_hours))
        grown[: self._buffer.shape[0]] = self._buffer
        self._buffer = grown

    def update(self, batch: HourlyBatch) -> List[int]:
        self._check_batch(batch)
        rows, new_ids = self._rows_for(batch.antenna_ids)
        if self._count == self.window_hours:
            slot = self._start
            self._start = (self._start + 1) % self.window_hours
        else:
            slot = (self._start + self._count) % self.window_hours
            self._count += 1
        self._buffer[: self.n_antennas, :, slot] = 0.0
        self._buffer[rows, :, slot] = batch.traffic
        self._slot_hours[slot] = batch.hour
        self.hours_seen += 1
        self.last_hour = batch.hour
        return new_ids

    @property
    def n_resident_hours(self) -> int:
        return self._count

    def _slots(self) -> List[int]:
        return [
            (self._start + k) % self.window_hours for k in range(self._count)
        ]

    def hours(self) -> np.ndarray:
        return np.array(
            [self._slot_hours[s] for s in self._slots()], dtype="datetime64[h]"
        )

    def tensor(self) -> np.ndarray:
        slots = self._slots()
        return self._buffer[: self.n_antennas][:, :, slots].copy()

    def window_totals(self) -> np.ndarray:
        return self.tensor().sum(axis=2)

    def state_dict(self) -> Dict[str, object]:
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
        acc = cls(
            [str(s) for s in np.asarray(state["service_names"])],
            int(state["window_hours"]),
        )
        resident = np.asarray(state["buffer"], dtype=float)
        n, m, count = resident.shape
        acc._capacity = n
        acc._buffer = np.zeros((n, m, acc.window_hours))
        acc._buffer[:, :, :count] = resident
        stamps = [np.datetime64(str(h), "h")
                  for h in np.asarray(state["slot_hours"])]
        acc._slot_hours = list(stamps) + [None] * (acc.window_hours - count)
        acc._start = 0
        acc._count = count
        acc._restore_registry(np.asarray(state["ids"], dtype=np.int64),
                              int(state["hours_seen"]), _last_hour(state))
        return acc
