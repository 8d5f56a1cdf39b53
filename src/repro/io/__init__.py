"""CSV ingestion/export for operator-style traffic data."""

from repro.io.csvio import (
    export_hourly_csv,
    export_totals_csv,
    iter_hourly_csv,
    load_hourly_csv,
    load_totals_csv,
    totals_from_hourly,
)

__all__ = [
    "export_totals_csv",
    "load_totals_csv",
    "export_hourly_csv",
    "iter_hourly_csv",
    "load_hourly_csv",
    "totals_from_hourly",
]
