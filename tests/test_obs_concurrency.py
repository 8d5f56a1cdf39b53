"""Concurrent scrape tests: /metrics under load, exemplar invariants.

Hammers a live serve node with classify traffic on several threads
while other threads scrape both expositions, and asserts every scrape
is internally consistent: parseable text, monotonic counters, and
exemplars that honour the OpenMetrics shape (trace id present, value
within the bucket bound they annotate).
"""

import json
import re
import threading
import urllib.request

import pytest

from repro.obs.alerts import AlertManager, default_rules
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.slo import SLOEngine, default_slos
from repro.obs.trace import disable_tracing, enable_tracing, span
from repro.obs.tsdb import MetricsTSDB
from repro.serve import ProfileService, ServeMetrics, make_server
from tests.conftest import build_frozen_profile

#: OpenMetrics exemplar suffix: `... N # {trace_id="..."} value`.
_EXEMPLAR_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)\{(?P<labels>[^}]*)\} '
    r'(?P<count>\S+) # \{trace_id="(?P<trace>[0-9a-f]+)"\} '
    r'(?P<value>\S+)$'
)


@pytest.fixture()
def traced_server():
    """Live server whose metrics share one registry, tracing on."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    store = enable_tracing(capacity=4096, clear=True)
    frozen, _ = build_frozen_profile()
    service = ProfileService(
        frozen, max_batch=16, n_workers=2,
        metrics=ServeMetrics(registry=registry),
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", frozen, service, store
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        disable_tracing()
        store.clear()
        set_registry(previous)


@pytest.fixture()
def slo_server():
    """Live server with an SLO engine + alert manager attached.

    Every scrape of /metrics, /metrics.json, /slo, and /healthz ticks
    the engine and re-evaluates the rules from the handler thread, so
    this is the fixture that exercises tick()/evaluate() concurrency.
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    store = enable_tracing(capacity=4096, clear=True)
    frozen, _ = build_frozen_profile()
    service = ProfileService(
        frozen, max_batch=16, n_workers=2,
        metrics=ServeMetrics(registry=registry),
    )
    engine = SLOEngine(default_slos(), MetricsTSDB(registry))
    manager = AlertManager(
        engine, default_rules(engine), registry=registry
    )
    server = make_server(
        service, port=0, slo_engine=engine, alert_manager=manager
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", frozen, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        disable_tracing()
        store.clear()
        set_registry(previous)


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, response.read().decode("utf-8")


class TestConcurrentScrape:
    def test_scrapes_stay_consistent_under_load(self, traced_server):
        base_url, frozen, service, _ = traced_server
        stop = threading.Event()
        errors = []

        def traffic(worker):
            row = worker % (len(frozen.features) - 4)
            while not stop.is_set():
                with span("load.classify", worker=worker):
                    service.classify(frozen.features[row:row + 4],
                                     timeout=30.0)

        def scrape_text(results):
            while not stop.is_set():
                try:
                    status, text = _get(f"{base_url}/metrics")
                    assert status == 200
                    for line in text.splitlines():
                        if not line or line.startswith("#"):
                            continue
                        if " # {" in line:
                            assert _EXEMPLAR_LINE.match(line), line
                        else:
                            float(line.rsplit(" ", 1)[1])
                    results.append(text)
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)
                    return

        def scrape_json(results):
            while not stop.is_set():
                try:
                    status, body = _get(f"{base_url}/metrics.json")
                    assert status == 200
                    results.append(json.loads(body))
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)
                    return

        # One result list per scraper: ordering is only meaningful
        # within a single scraper's sequence of requests.
        text_lists = [[], []]
        snapshots = []
        threads = (
            [threading.Thread(target=traffic, args=(w,)) for w in range(3)]
            + [threading.Thread(target=scrape_text, args=(results,))
               for results in text_lists]
            + [threading.Thread(target=scrape_json, args=(snapshots,))]
        )
        for worker in threads:
            worker.start()
        # Let traffic and scrapes overlap for a bounded burst.
        deadline = threading.Event()
        deadline.wait(1.0)
        stop.set()
        for worker in threads:
            worker.join(10.0)
        assert not errors, errors
        assert all(text_lists) and snapshots

        # Counters must be monotonic across sequential scrapes of one
        # scraper thread (requests_total never goes backwards).
        def requests_total(text):
            for line in text.splitlines():
                if line.startswith("repro_serve_requests_total"):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        for texts in text_lists:
            values = [requests_total(text) for text in texts]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_exemplar_invariants_after_load(self, traced_server):
        base_url, frozen, service, store = traced_server
        for row in range(6):
            with span("load.classify", row=row):
                service.classify(frozen.features[row:row + 2], timeout=30.0)

        _, text = _get(f"{base_url}/metrics")
        exemplar_lines = [
            line for line in text.splitlines() if " # {" in line
        ]
        assert exemplar_lines, "latency histogram retained no exemplars"
        trace_ids = {record.trace_id for record in store.spans()}
        for line in exemplar_lines:
            match = _EXEMPLAR_LINE.match(line)
            assert match, line
            # The annotated observation fits the bucket it landed in.
            labels = dict(
                pair.split("=", 1) for pair in match["labels"].split(",")
            )
            bound = labels["le"].strip('"')
            if bound != "+Inf":
                assert float(match["value"]) <= float(bound)
            # And its trace id resolves to a span this process recorded.
            assert match["trace"] in trace_ids

        # The structured exemplar view agrees with the text exposition.
        family = service.metrics.registry.get(
            "repro_serve_request_latency_seconds"
        )
        for _, child in family.series():
            for exemplar in child.exemplars():
                assert exemplar.trace_id in trace_ids
                if exemplar.bucket_le != float("inf"):
                    assert exemplar.value <= exemplar.bucket_le


class TestConcurrentSLOScrape:
    """Scrape-triggered tick()/evaluate() racing across handler threads.

    Every /metrics, /metrics.json, /slo, and /healthz request ticks the
    engine from its own handler thread; interleaved ticks used to lose
    the append race and turn one scrape into a 500 (and /healthz into a
    spurious failure).  Hammer all four endpoints at once and require
    that none of them ever errors.
    """

    def test_tick_racing_scrapes_never_error(self, slo_server):
        base_url, frozen, service = slo_server
        stop = threading.Event()
        errors = []
        paths = ("/metrics", "/metrics.json", "/slo", "/healthz")
        statuses = {path: [] for path in paths}

        def traffic(worker):
            row = worker % (len(frozen.features) - 4)
            while not stop.is_set():
                with span("load.classify", worker=worker):
                    service.classify(frozen.features[row:row + 4],
                                     timeout=30.0)

        def scrape(path):
            while not stop.is_set():
                try:
                    status, _ = _get(f"{base_url}{path}")
                    statuses[path].append(status)
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append((path, exc))
                    return

        threads = (
            [threading.Thread(target=traffic, args=(w,)) for w in range(2)]
            # Two scrapers per path so each endpoint also races itself.
            + [threading.Thread(target=scrape, args=(path,))
               for path in paths for _ in range(2)]
        )
        for worker in threads:
            worker.start()
        deadline = threading.Event()
        deadline.wait(1.0)
        stop.set()
        for worker in threads:
            worker.join(10.0)
        # urlopen raises on any non-2xx status, so an interleaved-tick
        # ValueError would surface here as an HTTPError 500.
        assert not errors, errors
        for path in paths:
            assert statuses[path], f"no successful scrape of {path}"
            assert set(statuses[path]) == {200}
