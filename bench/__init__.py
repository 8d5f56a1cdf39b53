"""End-to-end and per-layer benchmark of the ICN profiling system.

Four workloads cover the system's two paths: ``pipeline-paper`` (the
paper's batch methodology), ``serve-batch`` and ``serve-http`` (the online
serving path, in process and over HTTP) and ``stream-day`` (hourly stream
ingestion).  The benchmark reaches the program only through its public
APIs and reads only the metrics it already exports.  See ``README.md``.
"""
