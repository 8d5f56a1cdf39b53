#!/usr/bin/env python
"""Profiling a custom deployment: an enterprise-heavy operator.

Scenario: a private-network operator runs mostly corporate campuses and
hospitals (not the paper's transit-heavy mix) and wants to know how many
distinct service-demand profiles its deployment exhibits, to size network
slices (paper Section 7).  This example shows the library's API on a
user-defined deployment:

* custom environment specs (counts, Paris share, volumes),
* the Fig. 2 k-selection scan to choose the cluster count,
* cluster -> environment attribution on the chosen k.

Run:  python examples/custom_deployment.py
"""

from repro import ICNProfiler, generate_dataset
from repro.datagen.environments import EnvironmentSpec, EnvironmentType
from repro.viz import render_scan

ENTERPRISE_SPECS = (
    EnvironmentSpec(EnvironmentType.WORKSPACE, 260, 0.55, (2, 8), 3.0e5),
    EnvironmentSpec(EnvironmentType.HOSPITAL, 60, 0.30, (2, 6), 2.5e5),
    EnvironmentSpec(EnvironmentType.COMMERCIAL, 50, 0.20, (1, 4), 5.0e5),
    EnvironmentSpec(EnvironmentType.HOTEL, 30, 0.40, (1, 3), 2.0e5),
    EnvironmentSpec(EnvironmentType.EXPO, 40, 0.50, (2, 8), 4.0e5),
    EnvironmentSpec(EnvironmentType.TUNNEL, 20, 0.40, (1, 3), 3.5e5),
)


def main():
    print("Generating the enterprise-heavy deployment ...")
    dataset = generate_dataset(master_seed=3, specs=ENTERPRISE_SPECS)
    print(f"  {dataset.n_antennas} antennas at {len(dataset.sites)} sites")

    profiler = ICNProfiler(surrogate_trees=50)
    print("\nScanning candidate cluster counts (Fig. 2 methodology) ...")
    scan = profiler.scan_cluster_counts(dataset, ks=range(2, 11))
    print(render_scan(scan.ks, scan.silhouette, scan.dunn))
    best_k = scan.best_k("silhouette")
    print(f"\nselected k = {best_k} (high silhouette followed by a drop)")

    # The Ward tree does not depend on k: the same profiler reuses the
    # scan's clustering and only cuts it at the chosen k.
    profiler.n_clusters = best_k
    profile = profiler.fit(dataset)
    print()
    print(profile.summary())

    print("\nSlice proposal (cluster -> dominant environment):")
    table = profile.environment_table()
    for cluster, size in sorted(profile.cluster_sizes().items()):
        dominant = table.dominant_environment(cluster)
        share = table.composition_of(cluster)[dominant]
        print(
            f"  slice {cluster}: {size:>4} antennas, "
            f"anchor environment {dominant.value} ({share:.0%})"
        )


if __name__ == "__main__":
    main()
