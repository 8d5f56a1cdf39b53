"""The serve-http workload's server process.

Fits the profile serve-batch serves, from ``--seed``, and serves it with
``make_server(ProfileService(frozen), port=0)``.  The parent drives it
over stdin/stdout, one JSON object per line:

* on start-up it prints ``{"port": P}``;
* ``{"cmd": "cpu"}`` -> this process's CPU seconds (all threads);
* ``{"cmd": "reload"}`` -> hot-swaps the same profile back in with
  ``ProfileService.reload`` (a write path beside the reads) and returns
  the seconds it took;
* ``{"cmd": "snapshot"}`` -> the service registry's ``to_dict()`` export;
* ``{"cmd": "trace", "on": true|false}`` -> turns tracing on or off;
* ``{"cmd": "spans"}`` -> the retained spans as ``TraceStore.to_payload()``;
* ``{"cmd": "oracle", "antennas": [...]}`` -> ``vote(rsca_of_volumes(...))``
  of those antennas' volumes through the object forest;
* ``{"cmd": "stop"}`` (or end of input) -> shuts down and exits.

Run as ``python -m bench.serve_child --seed S [--smoke]``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.serve_child")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from bench.harness import TRACE_CAPACITY, use_source_tree

    use_source_tree()
    from bench import inputs
    from repro.obs import disable_tracing, enable_tracing, get_trace_store
    from repro.serve import ProfileService, make_server

    ds, _ = inputs.dataset(args.seed, args.smoke)
    frozen = inputs.frozen_profile(ds, args.seed)
    service = ProfileService(frozen)
    server = make_server(service, port=0)
    serving = threading.Thread(target=server.serve_forever, name="bench-server")
    serving.start()

    def reply(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        reply({"port": server.server_address[1]})
        for line in sys.stdin:
            command = json.loads(line)
            cmd = command["cmd"]
            if cmd == "cpu":
                reply({"cpu_s": time.process_time()})
            elif cmd == "reload":
                start = time.perf_counter()
                service.reload(frozen)
                reply({"seconds": time.perf_counter() - start})
            elif cmd == "snapshot":
                reply({"registry": service.metrics.registry.to_dict()})
            elif cmd == "trace":
                if command["on"]:
                    enable_tracing(capacity=TRACE_CAPACITY)
                else:
                    disable_tracing()
                reply({"ok": True})
            elif cmd == "spans":
                reply({"payload": get_trace_store().to_payload()})
            elif cmd == "oracle":
                volumes = ds.totals[command["antennas"]]
                labels = frozen.vote(frozen.rsca_of_volumes(volumes))
                reply({"labels": [int(label) for label in labels]})
            elif cmd == "stop":
                break
            else:
                raise ValueError(f"unknown command {cmd!r}")
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
        service.close()
    reply({"ok": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
