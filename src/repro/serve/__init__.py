"""Concurrent profile serving: registry, micro-batching, cache, admission.

The batch pipeline fits a profile and ``repro.stream`` keeps it current;
this subsystem *answers queries* against it under concurrent load — the
operational endpoint the paper's Section 6/7 applications poll.  A
versioned :class:`ProfileRegistry` hot-swaps
:class:`~repro.stream.frozen.FrozenProfile` checkpoints without dropping
in-flight requests; a :class:`MicroBatcher` worker pool aggregates
concurrent queries into vectorized forest votes; an LRU+TTL
:class:`ResultCache` short-circuits recurring vectors; and admission
control sheds load past a queue watermark instead of queueing unbounded
latency.  In-process callers use :class:`ProfileService` directly; a
stdlib ``ThreadingHTTPServer`` JSON endpoint (:mod:`repro.serve.http`)
fronts the same service for remote ones (:class:`HttpServeClient`).

Quickstart::

    from repro import generate_dataset, ICNProfiler
    from repro.serve import ProfileService

    dataset = generate_dataset(master_seed=0)
    profile = ICNProfiler(n_clusters=9).fit(dataset)
    frozen = profile.freeze(service_totals=dataset.totals.sum(axis=0))

    with ProfileService(frozen, max_batch=64, n_workers=4) as service:
        print(service.classify(frozen.features[:5]).labels)
        print(service.classify_volumes(dataset.totals[:5]).labels)
        print(service.metrics_snapshot()["derived"])
"""

from repro.serve.cache import DEFAULT_DECIMALS, ResultCache, quantize_keys
from repro.serve.client import HttpServeClient
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ProfileRegistry
from repro.serve.scheduler import MicroBatcher, ShedRequest
from repro.serve.service import (
    ClassifyResult,
    PendingClassify,
    ProfileService,
    ServeDegradePolicy,
)
from repro.serve.http import ServeHTTPServer, make_server

__all__ = [
    "ClassifyResult",
    "DEFAULT_DECIMALS",
    "HttpServeClient",
    "MicroBatcher",
    "PendingClassify",
    "ProfileRegistry",
    "ProfileService",
    "ResultCache",
    "ServeDegradePolicy",
    "ServeHTTPServer",
    "ServeMetrics",
    "ShedRequest",
    "make_server",
    "quantize_keys",
]
