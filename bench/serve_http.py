"""serve-http: a closed loop over loopback HTTP against a server process.

The server (:mod:`bench.serve_child`) fits the serve-batch profile and is
told to hot-swap it back in every 5 s of the measured window.  Two client
threads each hold one persistent HTTP/1.1 connection and POST
``{"volumes": ...}`` for 4 antennas, each drawn in proportion to its total
traffic volume in the dataset.  HTTP framing and JSON, the volume -> RSCA
transform, the result cache and small micro-batches share the server's
work, and reloads are a write path beside the reads.  Real clients keep
connections open, so a stall that only persistent connections see shows
up here and not in serve-batch.  CPU per request is
the server process's utime + stime over all its threads, read by the
server as ``time.process_time()``: the same clock as ``/proc/<pid>/stat``
at nanosecond rather than 10 ms resolution, which 1 s slices need.  The
server runs on the client's core (bench/speed.py), and its CPU per request
is divided by each slice's slowdown; the latency, set by the transport
stall, is not.

Assumed, not measured: 4 antennas per request and a reload every 5 s.
"""

from __future__ import annotations

import http.client
import json
import queue
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from bench import inputs
from bench.harness import (
    ROOT, Check, Phase, RegistryDelta, least_disturbed, ratio,
)
from bench.speed import SpeedProbe
from bench.serve_batch import serve_stages
from repro.obs import get_trace_store, inject, span

#: Set-up starts a server process (about 5 s), so only twice per run, for
#: the benchmark's time budget.
SETUP_REPEATS = 2
CLIENTS = 2
ROWS_PER_REQUEST = 4
WARMUP_S = 1.0
#: Reload period in window slices of about 1 s: every 5 s.
RELOAD_EVERY_SLICES = 5
CHILD_START_TIMEOUT_S = 170.0
REQUEST_TIMEOUT_S = 10.0
#: Requests drawn per client up front; more than a stall-free run sends.
DRAWS = 65536


class Child:
    """The server process and its line-oriented control channel."""

    def __init__(self, seed: int, smoke: bool) -> None:
        command = [sys.executable, "-m", "bench.serve_child", "--seed", str(seed)]
        self.proc = subprocess.Popen(
            command + (["--smoke"] if smoke else []), cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._lines: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pump = threading.Thread(target=self._read, name="bench-child-pipe")
        self._pump.start()
        hello = self._reply(CHILD_START_TIMEOUT_S)
        self.port = hello["port"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"server process silent for {timeout} s") from None
        if line is None:
            raise RuntimeError(f"server process exited ({self.proc.wait()})")
        return json.loads(line)

    def call(self, cmd: str, timeout: float = 60.0, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self._reply(timeout)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.call("stop", timeout=30.0)
            self.proc.wait(timeout=30.0)
        except (RuntimeError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self._pump.join()
            self.proc.stdout.close()


@dataclass
class State:
    seed: int
    smoke: bool
    child: Child
    bodies: List[bytes]
    popularity: np.ndarray
    probe: SpeedProbe
    phases: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool, probe: SpeedProbe) -> State:
    child = Child(seed, smoke)
    try:
        ds, generate_s = inputs.dataset(seed, smoke)
        # One pre-serialized JSON row per antenna; a request joins 4 of them.
        bodies = [json.dumps(row.tolist()).encode() for row in ds.totals]
    except BaseException:
        child.close()
        raise
    return State(seed, smoke, child, bodies, inputs.popularity(ds.totals), probe,
                 layers={"datagen.generate_s": generate_s})


def _client(state: State, index: int, start: float, end: float,
            out: List[tuple]) -> None:
    rng = np.random.default_rng([state.seed, state.phases, index])
    picks = rng.choice(len(state.bodies), size=(DRAWS, ROWS_PER_REQUEST),
                       p=state.popularity)
    conn = http.client.HTTPConnection("127.0.0.1", state.child.port,
                                      timeout=REQUEST_TIMEOUT_S)
    i = 0
    try:
        while time.perf_counter() < end:
            ids = picks[i % len(picks)]
            i += 1
            body = b'{"volumes": [' + b", ".join(state.bodies[a] for a in ids) + b"]}"
            headers = {"Content-Type": "application/json"}
            sent = time.perf_counter()
            try:
                with span("bench.http_post", rows=ROWS_PER_REQUEST):
                    inject(headers)
                    conn.request("POST", "/classify", body, headers)
                    response = conn.getresponse()
                    payload = response.read()
                status = response.status
                answer = json.loads(payload) if status == 200 else None
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                status, answer = 0, None
            out.append((sent - start, time.perf_counter() - sent, status, ids, answer))
    finally:
        conn.close()


def measure(state: State, seconds: float, traced: bool) -> Phase:
    state.phases += 1
    child = state.child
    if traced:
        child.call("trace", on=True)
    warmup = 0.5 if state.smoke else WARMUP_S
    first = child.call("snapshot")
    start = time.perf_counter()
    end = start + warmup + seconds
    results: List[List[tuple]] = [[] for _ in range(CLIENTS)]
    clients = [
        threading.Thread(target=_client, args=(state, i, start, end, results[i]),
                         name=f"bench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in clients:
        thread.start()
    # Reloads land on fixed slices of the window (the first of every 5),
    # so every run sees the same write pattern.  Server CPU is read at
    # every slice boundary of the window.
    slices = max(1, int(seconds))
    marks, reload_s = [], []
    for k in range(slices + 1):
        tick = start + warmup + k * seconds / slices
        time.sleep(max(0.0, tick - time.perf_counter()))
        marks.append((tick, child.call("cpu")["cpu_s"]))
        if k < slices and k % RELOAD_EVERY_SLICES == 0:
            reload_s.append(child.call("reload")["seconds"])
    for thread in clients:
        thread.join()
    last = child.call("snapshot")
    spans = None
    if traced:
        child.call("trace", on=False)
        spans = child.call("spans")["payload"]

    requests = [r for rs in results for r in rs if r[2] == 200]
    in_window = [r for rs in results for r in rs
                 if r[0] >= warmup and r[0] + r[1] <= warmup + seconds]
    answered = [r for r in in_window if r[2] == 200]
    latency_ms = np.array([r[1] for r in answered]) * 1e3
    finished = np.array([r[0] + r[1] for r in answered])
    slice_p50, slice_cpu, slowdowns = [], [], []
    for (t0, cpu0), (t1, cpu1) in zip(marks, marks[1:]):
        done = (finished >= t0 - start) & (finished < t1 - start)
        if done.any():
            slice_p50.append(float(np.median(latency_ms[done])))
            slice_cpu.append((cpu1 - cpu0) / np.count_nonzero(done) * 1e3)
            slowdowns.append(state.probe.slowdown(t0, t1))
    return Phase(
        p50_ms=least_disturbed(slice_p50),
        cpu_ms_per_op=least_disturbed(slice_cpu, slowdowns),
        slowdown=statistics.median(slowdowns),
        attempted=len(in_window),
        failed=len(in_window) - len(answered),
        slices={"p50_ms": slice_p50, "cpu_ms_per_op": slice_cpu, "slowdown": slowdowns},
        data={
            "results": results,
            "latency_ms": latency_ms,
            "all_latency_ms": np.array([r[1] for r in requests]) * 1e3,
            "delta": RegistryDelta(first["registry"], last["registry"]),
            "reload_ms": np.mean(reload_s) * 1e3,
            "reloads": len(reload_s),
            "spans": spans,
        },
    )


def check(state: State, phase: Phase) -> List[Check]:
    asked = sorted({int(a) for results in phase.data["results"]
                    for _, _, _, ids, _ in results for a in ids})
    labels = state.child.call("oracle", timeout=120.0, antennas=asked)["labels"]
    oracle = dict(zip(asked, labels))
    wrong = regressions = answers = 0
    for results in phase.data["results"]:
        version = -1
        for _, _, status, ids, answer in results:
            if status != 200:
                continue
            answers += 1
            wrong += int([oracle[int(a)] for a in ids] != answer["labels"])
            regressions += int(answer["version"] < version)
            version = answer["version"]
    return [
        Check("labels_match_object_path", wrong == 0,
              f"{wrong} of {answers} answers differ from vote(rsca_of_volumes(row))"),
        Check("versions_monotonic_per_connection", regressions == 0,
              f"{regressions} version decreases"),
    ]


def layers(state: State, phase: Phase) -> Dict[str, float]:
    data = phase.data
    latency = data["all_latency_ms"]
    delta = data["delta"]
    stages = serve_stages(delta, latency.size)
    store = get_trace_store()
    store.merge(data["spans"])
    handler = [s.duration_s * 1e3 for s in store.spans()
               if s.name == "serve.http" and s.attributes.get("path") == "/classify"]
    handler_ms = float(np.mean(handler)) if handler else 0.0
    rsca_s, rsca_calls = delta.stage("serve.rsca_transform")
    rsca_ms = ratio(rsca_s, latency.size) * 1e3
    transport_ms = latency.mean() - handler_ms
    unattributed = handler_ms - rsca_ms - stages.pop("wait_and_vote_ms")
    return {
        **state.layers,
        **stages,
        "serve.rsca_transform_ms": ratio(rsca_s, rsca_calls) * 1e3,
        "serve.p99_ms": float(np.percentile(data["latency_ms"], 99)),
        "http.handler_ms": handler_ms,
        "http.transport_ms": transport_ms,
        "serve.reload_ms": data["reload_ms"],
        "serve.reloads": data["reloads"],
        "bench.latency_samples": data["latency_ms"].size,
        "bench.unattributed_ms": unattributed,
        "bench.unattributed_share": unattributed / latency.mean(),
    }


def close(state: State) -> None:
    state.child.close()
