#!/usr/bin/env python
"""Concurrent query serving with ``repro.serve``: classify, hot-swap, HTTP.

Scenario: the Section 4 profile is fitted and frozen; now downstream
systems — slice planners, anomaly monitors, dashboards — want cluster
answers on demand without touching the training pipeline.  This example
freezes a profile with its reference service mix, stands up a
:class:`~repro.serve.ProfileService` (micro-batching + result cache +
admission control), answers RSCA-vector and raw-volume queries on the
service in-process, hot-swaps a refreshed profile under live
traffic, then serves the same answers over the stdlib JSON HTTP
endpoint and reads the operational metrics.

Run:  python examples/serving_queries.py
"""

import threading

import numpy as np

from repro import ICNProfiler, generate_dataset
from repro.serve import HttpServeClient, ProfileService, make_server

from quickstart import reduced_specs


def main():
    print("=== Fit and freeze the reference profile ===")
    dataset = generate_dataset(master_seed=0, specs=reduced_specs())
    profile = ICNProfiler(n_clusters=9).fit(
        dataset, align_to=dataset.archetypes()
    )
    # service_totals lets the server accept *raw volume* queries and
    # apply the paper's RCA -> RSCA transform against the frozen mix.
    frozen = profile.freeze(service_totals=dataset.totals.sum(axis=0))
    print(f"frozen {frozen.n_clusters} clusters over "
          f"{frozen.antenna_ids.size} antennas, "
          f"{len(frozen.service_names)} services")

    print("\n=== In-process serving ===")
    with ProfileService(frozen, max_batch=64, n_workers=2) as service:
        answer = service.classify(frozen.features[:5])
        print(f"RSCA vectors -> clusters {answer.labels.tolist()} "
              f"(profile version {answer.version})")

        answer = service.classify_volumes(dataset.totals[:5])
        print(f"raw volumes  -> clusters {answer.labels.tolist()} "
              f"(server applied the RCA/RSCA transform)")

        repeat = service.classify(frozen.features[:5])
        print(f"repeat query -> {repeat.n_cached}/{repeat.n_vectors} rows "
              f"answered from the result cache")

        print("\n=== Hot-swap a refreshed profile under traffic ===")
        refreshed = ICNProfiler(n_clusters=9).fit(
            generate_dataset(master_seed=3, specs=reduced_specs()),
            align_to=dataset.archetypes(),
        ).freeze(service_totals=dataset.totals.sum(axis=0))
        version = service.reload(refreshed, drain_timeout=5.0)
        late = service.classify(frozen.features[:5])
        print(f"reloaded as version {version}; old version drained; "
              f"new answers carry version {late.version}")

        print("\n=== Per-cluster summaries ===")
        summary = service.cluster_summaries()
        for row in summary["clusters"][:3]:
            print(f"  cluster {row['cluster']}: occupancy "
                  f"{row['occupancy']} antennas "
                  f"({100.0 * row['share']:.1f}%)")

        print("\n=== Serving metrics ===")
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        print(f"  requests {counters['requests']}, vectors "
              f"{counters['vectors_classified']}, batches "
              f"{sum(snapshot['batch_size_histogram'].values())}, cache hit rate "
              f"{snapshot['derived']['cache_hit_rate']}")

    print("\n=== The same profile over HTTP ===")
    service = ProfileService(frozen, max_batch=64, n_workers=2)
    server = make_server(service, port=0)  # port 0 = pick a free one
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        with HttpServeClient(f"http://{host}:{port}") as http:
            print(f"  healthz  -> {http.healthz()}")
            answer = http.classify(frozen.features[:3])
            print(f"  classify -> labels {answer['labels']} "
                  f"(version {answer['version']})")
            answer = http.classify_volumes(np.asarray(dataset.totals[:3]))
            print(f"  volumes  -> labels {answer['labels']}")
            clusters = http.clusters()
            print(f"  clusters -> {clusters['n_clusters']} clusters over "
                  f"{clusters['n_antennas']} antennas")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(5.0)


if __name__ == "__main__":
    main()
