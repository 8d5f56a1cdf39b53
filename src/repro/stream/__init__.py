"""Online ingestion and incremental profiling.

The batch pipeline (:class:`~repro.core.pipeline.ICNProfiler`) consumes a
frozen two-month dataset in one shot; this subsystem keeps antenna
profiles current as new hourly traffic arrives.  Replay sources turn
stored data into ordered :class:`HourlyBatch` streams; bounded-memory
accumulators maintain the running T-matrix, incremental RSCA features and
a sliding recent-history window; a :class:`StreamingProfiler` classifies
newly seen antennas against a :class:`FrozenProfile` and raises drift
signals when the live demand mix walks away from the fitted reference.
All accumulator state checkpoints to ``.npz`` so ingestion survives
restarts mid-stream.

Quickstart::

    from repro import generate_dataset, ICNProfiler
    from repro.stream import StreamingProfiler, replay_dataset

    dataset = generate_dataset(master_seed=0)
    frozen = ICNProfiler(n_clusters=9).fit(dataset).freeze()
    streamer = StreamingProfiler(frozen, window_hours=168)
    for batch in replay_dataset(dataset):
        result = streamer.ingest(batch)
    print(streamer.summary())
"""

from repro.stream.batch import HourlyBatch
from repro.stream.source import replay_dataset, replay_hourly_csv, replay_tensor
from repro.stream.accumulators import (
    IncrementalRSCA,
    RunningTotals,
    SlidingWindowTensor,
)
from repro.stream.checkpoint import (
    backup_path,
    checkpoint_path,
    load_state,
    load_state_with_rollback,
    merge_namespaces,
    save_state,
    split_namespace,
)
from repro.stream.frozen import FrozenProfile, freeze_profile
from repro.stream.metrics import StreamMetrics
from repro.stream.profiler import (
    DEFAULT_WINDOW_HOURS,
    BatchResult,
    DriftSignal,
    StreamingProfiler,
)

__all__ = [
    "HourlyBatch",
    "replay_dataset",
    "replay_tensor",
    "replay_hourly_csv",
    "RunningTotals",
    "IncrementalRSCA",
    "SlidingWindowTensor",
    "FrozenProfile",
    "freeze_profile",
    "StreamMetrics",
    "StreamingProfiler",
    "BatchResult",
    "DriftSignal",
    "DEFAULT_WINDOW_HOURS",
    "save_state",
    "load_state",
    "load_state_with_rollback",
    "checkpoint_path",
    "backup_path",
    "split_namespace",
    "merge_namespaces",
]
