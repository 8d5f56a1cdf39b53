"""Full fit vs the served sample fit: is the sample representative?

The online workloads serve a profile fitted on a seeded sample of
``inputs.REFERENCE_ANTENNAS`` antennas, because a fit on all 4,762 would be
paid in the set-up of three workloads on every run.  This command fits
both profiles from one seed and measures what the online workloads pay
per row with each: the compiled kernel's vote at serve-batch's small
batches and at a larger batch, and the object forest's vote that the
stream path runs.  Each cost is the fastest of several interleaved
rounds, so host contention moves both profiles alike.  It also reports
how often the two profiles give an antenna the same cluster.

Run as ``python -m bench fit-sample [--seed S] [--out DIR]``; the report
goes to ``DIR/fit-sample-seed<S>.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from bench import inputs
from bench.harness import provenance
from repro import ICNProfiler, rsca
from repro.core.compare import adjusted_rand_index
from repro.stream import FrozenProfile

ROUNDS = 7
SMALL_BATCH = 4
LARGE_BATCH = 64
SMALL_CALLS = 200
OBJECT_ROWS = 600


def _seconds(fn: Callable[[], None]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _shape(frozen: FrozenProfile) -> Dict[str, float]:
    forest = frozen.compiled_forest()
    return {
        "trees": forest.n_trees,
        "nodes": forest.n_nodes,
        "max_depth": forest.max_depth,
        "reference_rows": int(frozen.features.shape[0]),
    }


def _costs(frozen: FrozenProfile, rows: np.ndarray) -> Dict[str, float]:
    """Seconds per row of one round of each measured call."""
    kernel = frozen.kernel()
    small = rows[: SMALL_BATCH * SMALL_CALLS].reshape(SMALL_CALLS, SMALL_BATCH, -1)
    large = rows[: LARGE_BATCH * (rows.shape[0] // LARGE_BATCH)]
    return {
        "kernel_us_per_row_batch4": _seconds(
            lambda: [kernel.vote(batch) for batch in small]) / small.shape[0] / SMALL_BATCH,
        "kernel_us_per_row_batch64": _seconds(
            lambda: [kernel.vote(large[i:i + LARGE_BATCH])
                     for i in range(0, large.shape[0], LARGE_BATCH)]) / large.shape[0],
        "object_us_per_row": _seconds(
            lambda: frozen.vote(rows[:OBJECT_ROWS])) / OBJECT_ROWS,
    }


def measure(seed: int) -> Dict[str, object]:
    ds, _ = inputs.dataset(seed, smoke=False)
    start = time.perf_counter()
    sample = inputs.frozen_profile(ds, seed)
    sample_fit_s = time.perf_counter() - start
    start = time.perf_counter()
    full = ICNProfiler(n_clusters=inputs.N_CLUSTERS).fit(ds).freeze(
        service_totals=ds.totals.sum(axis=0))
    full_fit_s = time.perf_counter() - start

    rows = rsca(ds.totals)
    rows = rows[np.random.default_rng([seed, 11]).permutation(rows.shape[0])]
    rounds = {"full": [], "sample": []}
    for _ in range(ROUNDS):
        for name, frozen in (("full", full), ("sample", sample)):
            rounds[name].append(_costs(frozen, rows))
    report: Dict[str, object] = {"seed": seed, "rounds": ROUNDS, "host": provenance()}
    for name, frozen, fit_s in (("full", full, full_fit_s), ("sample", sample, sample_fit_s)):
        costs = {k: min(r[k] for r in rounds[name]) * 1e6 for k in rounds[name][0]}
        report[name] = {"fit_s": fit_s, **_shape(frozen), **costs}
    report["sample_over_full"] = {
        k: report["sample"][k] / report["full"][k]
        for k in ("fit_s", "nodes", "kernel_us_per_row_batch4",
                  "kernel_us_per_row_batch64", "object_us_per_row")
    }
    all_rows = rsca(ds.totals)
    full_labels = full.kernel().vote(all_rows)
    sample_labels = sample.kernel().vote(all_rows)
    report["label_agreement_ari"] = adjusted_rand_index(full_labels, sample_labels)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench fit-sample")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path(".bench_out"))
    args = parser.parse_args(argv)
    report = measure(args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"fit-sample-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=2))
    for name in ("full", "sample", "sample_over_full"):
        for key, value in report[name].items():
            print(f"{name} {key} {value:.6g}")
    print(f"label_agreement_ari {report['label_agreement_ari']:.4f}")
    return 0
