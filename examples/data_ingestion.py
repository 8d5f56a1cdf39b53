#!/usr/bin/env python
"""Ingesting operator-format measurement data.

Scenario: a researcher holds real (aggregated, GDPR-compliant) traffic
exports — session records rolled up to hourly CSVs, or a wide totals
matrix — and wants to run the paper's analysis on them.  This example
round-trips both supported formats through ``repro.io`` and runs the
pipeline on the ingested matrix, demonstrating that the analysis is
data-source agnostic.  It also peeks one layer deeper: the synthetic
session generator shows the raw measurements the operator's probes would
have recorded before aggregation.

Run:  python examples/data_ingestion.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ICNProfiler, generate_dataset
from repro.datagen.sessions import SessionGenerator, session_statistics
from repro.io import (
    export_hourly_csv,
    export_totals_csv,
    load_hourly_csv,
    load_totals_csv,
    totals_from_hourly,
)

from quickstart import reduced_specs


def main(workdir: Path):
    dataset = generate_dataset(master_seed=1, specs=reduced_specs())

    print("=== Wide totals CSV (the clustering input) ===")
    totals_path = workdir / "totals.csv"
    export_totals_csv(
        totals_path, dataset.totals, dataset.antenna_names(),
        dataset.service_names,
    )
    names, services, totals = load_totals_csv(totals_path)
    print(f"wrote and re-read {totals_path.name}: "
          f"{len(names)} antennas x {len(services)} services")

    profile = ICNProfiler(n_clusters=9).fit(totals)
    print(f"pipeline on the ingested matrix: {profile.n_clusters} clusters, "
          f"surrogate accuracy {profile.surrogate_accuracy:.3f}")

    print("\n=== Long hourly CSV (a measurement-platform export) ===")
    window = dataset.calendar.window(
        np.datetime64("2023-01-09T00", "h"),
        np.datetime64("2023-01-15T23", "h"),
    )
    antenna_ids = [0, 1, 2, 3]
    hourly = dataset.hourly_service("Netflix", antenna_ids=antenna_ids,
                                    window=window)
    hourly_path = workdir / "netflix_hourly.csv"
    export_hourly_csv(hourly_path, hourly, dataset.calendar.hours[window],
                      antenna_ids, "Netflix")
    ids, svc_names, hours, tensor = load_hourly_csv(hourly_path)
    per_antenna_totals = totals_from_hourly(tensor)
    print(f"wrote and re-read {hourly_path.name}: "
          f"{tensor.shape[0]} antennas x {tensor.shape[2]} hours")
    print(f"weekly Netflix totals per antenna (MB): "
          f"{np.round(per_antenna_totals[:, 0], 1)}")

    print("\n=== The raw session layer underneath ===")
    generator = SessionGenerator(dataset)
    sessions = generator.sessions_for(0, "Netflix", window)
    stats = session_statistics(sessions)
    print(f"antenna 0 Netflix sessions that week: {stats['count']}")
    print(f"  median flow {stats['volume_mb_p50']:.1f} MB, "
          f"p95 {stats['volume_mb_p95']:.1f} MB")
    print(f"  mean duration {stats['duration_s_mean']:.0f} s, "
          f"downlink share {stats['downlink_share']:.0%}")
    aggregated = generator.aggregate_hourly(sessions, window)
    drift = np.abs(aggregated - hourly[0]).max()
    print(f"  re-aggregating the sessions reproduces the hourly series "
          f"(max deviation {drift:.2e} MB)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="repro-io-") as tmp:
        main(Path(tmp))
