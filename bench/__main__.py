"""Command line: ``python -m bench run``, ``compare`` and ``fit-sample``.

``run --workload W`` runs one workload in this process.  Without
``--workload`` every workload runs, each in a fresh process, and the last
line sums them up.  ``compare`` is :mod:`bench.compare` and ``fit-sample``
is :mod:`bench.fit_sample`.
"""

from __future__ import annotations

import os

# A workload runs on one core (bench/speed.py), so numpy's BLAS must not
# start threads of its own; this has to precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import compare, speed  # noqa: E402
from bench.harness import (  # noqa: E402
    ROOT, WORKLOADS, load_spec, run_workload, use_source_tree,
)

#: Measured seconds per phase in ``--smoke`` mode.
SMOKE_SECONDS = 1.0


def _result(line: str):
    """The result object a workload prints last, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def _run_all(args) -> int:
    """Run every workload in its own process and print the summed result.

    A workload that fails a check (exit 1) still reports: its result is
    folded in as incorrect and the remaining workloads run.  Any other
    exit, or a missing result line, is a crash and stops the run.
    """
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--out", str(args.out)]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        result = _result(lines[-1]) if lines and proc.returncode in (0, 1) else None
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            print(f"# {name} crashed (exit {proc.returncode})", flush=True)
            return proc.returncode or 2
        if proc.returncode == 1:
            print(f"# {name} failed a check", flush=True)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload or all of them")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="accepted only when equal to BENCHMARK.json's run_seconds, "
                          "which sets the run length")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="repeat the run traced; print per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help=f"tiny dataset and {SMOKE_SECONDS:g} s phases, for tests")
    run.add_argument("--out", type=Path, default=Path(".bench_out"),
                     help="directory for reports, traces and layer files")
    commands.add_parser("compare", add_help=False,
                        help="compare two sets of runs (see bench/compare.py)")
    commands.add_parser("fit-sample", add_help=False,
                        help="full fit vs the served sample fit (see bench/fit_sample.py)")
    args, rest = parser.parse_known_args(argv)
    if args.command == "compare":
        return compare.main(rest)
    if args.command == "fit-sample":
        use_source_tree()
        from bench import fit_sample

        return fit_sample.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")

    run_seconds = float(load_spec()["run_seconds"])
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(f"--seconds {args.seconds:g}: the run length is BENCHMARK.json's "
                     f"run_seconds ({run_seconds:g})")
    use_source_tree()
    seconds = SMOKE_SECONDS if args.smoke else run_seconds
    if args.workload is None:
        return _run_all(args)
    speed.pin()
    return run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main())
