"""pipeline-paper: the paper's Sections 4-5 as one batch job.

One pass is k-scan over k = 2..15, the 9-cluster fit aligned to the
generator's archetypes (Ward runs twice, the forest is fit twice because
``aligned_to`` refits it), TreeSHAP on 2 antennas per cluster, and the
freeze plus kernel compile the online path starts from.  All of the work
is in ``core``, ``ml`` and ``explain``; none is in ``serve`` or ``stream``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from bench import inputs
from bench.harness import Check, Phase, RegistryDelta, least_disturbed, ratio
from bench.speed import SpeedProbe
from repro import ICNProfiler, TrafficDataset
from repro.core.compare import adjusted_rand_index
from repro.explain.treeshap import TreeExplainer
from repro.obs import get_registry, span

#: Setup is dataset generation only (under a second), so it repeats
#: enough for a steady median.
SETUP_REPEATS = 5
KS = range(2, 16)
SHAP_SAMPLES_PER_CLUSTER = 2

#: Stages the pipeline already times into ``repro_stage_seconds``.
STAGES = ("pipeline.rca", "pipeline.cluster", "pipeline.surrogate",
          "pipeline.align", "pipeline.shap")


@dataclass
class State:
    dataset: TrafficDataset
    smoke: bool
    probe: SpeedProbe
    layers: Dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool, probe: SpeedProbe) -> State:
    ds, generate_s = inputs.dataset(seed, smoke)
    return State(ds, smoke, probe, {"datagen.generate_s": generate_s})


def _one_pass(state: State) -> Dict[str, object]:
    ds = state.dataset
    samples = 1 if state.smoke else SHAP_SAMPLES_PER_CLUSTER
    profiler = ICNProfiler(n_clusters=inputs.N_CLUSTERS)
    before = get_registry().to_dict()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with span("bench.scan_cluster_counts"):
        scan = profiler.scan_cluster_counts(ds, ks=KS)
    t1 = time.perf_counter()
    with span("bench.fit", align=True):
        profile = profiler.fit(ds, align_to=ds.archetypes())
    with span("bench.explain", samples_per_cluster=samples):
        profile.explain(samples_per_cluster=samples)
    t2 = time.perf_counter()
    with span("bench.freeze"):
        frozen = profile.freeze(service_totals=ds.totals.sum(axis=0))
        frozen.kernel()
    t3 = time.perf_counter()
    sizes = np.bincount(profile.labels)
    return {
        "wall_s": t3 - t0,
        "cpu_s": time.process_time() - cpu0,
        "kscan_s": t1 - t0,
        "freeze_s": t3 - t2,
        "slowdown": state.probe.slowdown(t0, t3),
        "shap_rows": int(np.minimum(sizes[sizes > 0], samples).sum()),
        "stages": RegistryDelta(before, get_registry().to_dict()),
        "scan": scan,
        "profile": profile,
        "frozen": frozen,
    }


def measure(state: State, seconds: float, traced: bool) -> Phase:
    """Repeat whole passes until ``seconds`` have passed.  A pass's wall
    and CPU time are both divided by the pass's slowdown: the pass runs on
    the probe's core and does nothing but compute."""
    passes: List[Dict[str, object]] = []
    elapsed = 0.0
    while elapsed < seconds:
        passes.append(_one_pass(state))
        elapsed += passes[-1]["wall_s"]
    walls = [p["wall_s"] * 1e3 for p in passes]
    cpus = [p["cpu_s"] * 1e3 for p in passes]
    slowdowns = [p["slowdown"] for p in passes]
    return Phase(
        p50_ms=least_disturbed(walls, slowdowns),
        cpu_ms_per_op=least_disturbed(cpus, slowdowns),
        slowdown=statistics.median(slowdowns),
        attempted=len(passes),
        failed=0,
        slices={"p50_ms": walls, "cpu_ms_per_op": cpus, "slowdown": slowdowns},
        data={"passes": passes},
    )


def check(state: State, phase: Phase) -> List[Check]:
    last = phase.data["passes"][-1]
    ds, profile, frozen = state.dataset, last["profile"], last["frozen"]
    ari = adjusted_rand_index(profile.labels, ds.archetypes())
    checks = [
        Check("ari_vs_archetypes", ari >= 0.99, f"ARI {ari:.4f} (>= 0.99)"),
        Check("surrogate_accuracy", profile.surrogate_accuracy >= 0.99,
              f"{profile.surrogate_accuracy:.4f} (>= 0.99)"),
        Check("kscan_covers_ks", list(last["scan"].ks) == list(KS),
              f"ks {list(last['scan'].ks)}"),
    ]
    # TreeSHAP local accuracy on the first antenna of every cluster.
    rows = np.array([np.flatnonzero(profile.labels == c)[0]
                     for c in np.unique(profile.labels)])
    x = profile.features[rows]
    explainer = TreeExplainer(profile.surrogate)
    reconstructed = explainer.shap_values(x).sum(axis=1) + explainer.expected_value
    error = float(np.max(np.abs(reconstructed - profile.surrogate.predict_proba(x))))
    checks.append(Check("treeshap_local_accuracy", error <= 1e-9,
                        f"max |sum(phi) + E - p| = {error:.2e} over {rows.size} rows"))
    kernel_labels = frozen.kernel().vote(profile.features)
    object_labels = frozen.vote(profile.features)
    mismatches = int(np.sum(kernel_labels != object_labels))
    checks.append(Check("kernel_vote_bit_identical",
                        np.array_equal(kernel_labels, object_labels),
                        f"{mismatches} of {object_labels.size} rows differ"))
    return checks


def layers(state: State, phase: Phase) -> Dict[str, float]:
    passes = phase.data["passes"]
    n = len(passes)

    def per_pass(stage: str) -> float:
        return sum(p["stages"].stage(stage)[0] for p in passes) / n

    fits = [p["stages"].stage(s)[1] for p in passes
            for s in ("pipeline.surrogate", "pipeline.align")]
    shap_s = per_pass("pipeline.shap")
    wall = sum(p["wall_s"] for p in passes) / n
    kscan = sum(p["kscan_s"] for p in passes) / n
    freeze = sum(p["freeze_s"] for p in passes) / n
    attributed = kscan + freeze + sum(per_pass(s) for s in STAGES)
    return {
        **state.layers,
        "core.kscan_s": kscan,
        "core.ward_s": per_pass("pipeline.cluster"),
        "core.rca_s": per_pass("pipeline.rca"),
        "ml.forest_fit_s": per_pass("pipeline.surrogate") + per_pass("pipeline.align"),
        "ml.forest_fit_calls": sum(fits) / n,
        "explain.shap_s": shap_s,
        "explain.shap_ms_per_row": ratio(
            shap_s * 1e3, sum(p["shap_rows"] for p in passes) / n),
        "stream.freeze_s": freeze,
        "bench.latency_samples": n,
        "bench.unattributed_ms": (wall - attributed) * 1e3,
        "bench.unattributed_share": (wall - attributed) / wall,
    }


def close(state: State) -> None:
    pass
