"""Compare the runs of two commits, workload by workload and metric by metric.

Usage::

    python -m bench compare BASE_OUT NEW_OUT   # verdicts; exit 1 on a regression
    python -m bench compare OUT                # median and quartiles as JSON

Each argument is an ``--out`` directory of ``python -m bench run``; the
reports under its ``runs/`` are read.  Runs flagged invalid (the open-loop
generator fell behind) and smoke runs are skipped, and the skips are
listed.  The i-th run of each side forms the i-th pair, in start order;
the two runs of a pair must have the same seed and run length, or the
comparison is refused (exit 2).

For every end-to-end metric, with its bound from ``BENCHMARK.json``:

* **unresolved** -- either side's spread (interquartile range over median)
  is wider than the bound, unless every new run reads better than every
  base run;
* **regression** -- the new median is worse than the base median by more
  than the bound;
* **gain** -- at least 10 pairs, alternating which side ran first, the new
  side winning at least 9 of every 10 (ties count for neither), and the
  medians differing by more than the base's interquartile range;
* otherwise **no change**.

Any increase in the failed share of operations is reported and fails the
comparison.  Per-layer medians are listed side by side without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from bench.harness import load_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Tuple[Dict[str, List[dict]], List[str]]:
    """Valid reports per workload in start order, and what was skipped."""
    runs: Dict[str, List[dict]] = {}
    skipped = []
    for path in sorted((directory / "runs").glob("*.json")):
        with open(path) as handle:
            report = json.load(handle)
        if report["smoke"]:
            skipped.append(f"{path.name}: smoke run")
        elif not report["valid"]:
            skipped.append(f"{path.name}: {report['invalid_reason']}")
        else:
            runs.setdefault(report["workload"], []).append(report)
    for reports in runs.values():
        reports.sort(key=lambda r: r["started"])
    return runs, skipped


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(reports: List[dict], section: str, metric: str) -> List[float]:
    return [r[section][metric]["value"] for r in reports
            if r.get(section) and metric in r[section]]


def fail_share(reports: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def summarize(runs: Dict[str, List[dict]]) -> Dict[str, object]:
    """Per workload: run count, seeds and failed share; per metric: median,
    quartiles, spread (interquartile range over median), max over min and
    value count.  With the host of the first run."""
    out: Dict[str, object] = {}
    for workload, reports in sorted(runs.items()):
        out.setdefault("host", reports[0]["host"])
        entry: Dict[str, object] = {"runs": len(reports),
                                    "seeds": sorted({r["seed"] for r in reports}),
                                    "fail_share": fail_share(reports)}
        for section in ("metrics", "layers"):
            names = sorted({m for r in reports for m in (r.get(section) or {})})
            stats = {}
            for name in names:
                values = _values(reports, section, name)
                q1, median, q3 = quartiles(values)
                unit = next(r[section][name]["unit"] for r in reports
                            if r.get(section) and name in r[section])
                stats[name] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median if median else 0.0,
                               "max_over_min": max(values) / min(values)
                               if min(values) > 0 else None,
                               "n": len(values), "unit": unit}
            if stats:
                entry[section] = stats
        out.setdefault("workloads", {})[workload] = entry
    return out


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, alternated: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    nq1, new_median, nq3 = quartiles(new)
    spread = max((q3 - q1) / abs(base_median), (nq3 - nq1) / abs(new_median))
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (new_median - base_median) / abs(base_median) > bound:
        return "regression"
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    if (len(pairs) >= MIN_PAIRS and alternated and wins >= WIN_SHARE * len(pairs)
            and sign * (new_median - base_median) < 0
            and abs(new_median - base_median) > q3 - q1):
        return "gain"
    return "no change"


def compare(base_dir: Path, new_dir: Path) -> int:
    spec = load_spec()
    base, base_skipped = load_runs(base_dir)
    new, new_skipped = load_runs(new_dir)
    for side, skipped in (("base", base_skipped), ("new", new_skipped)):
        for line in skipped:
            print(f"# skipped {side} {line}")
    mismatched = [
        f"{workload} pair {i}: base seed {b['seed']}, {b['seconds']:g} s; "
        f"new seed {n['seed']}, {n['seconds']:g} s"
        for workload in sorted(set(base) & set(new))
        for i, (b, n) in enumerate(zip(base[workload], new[workload]))
        if (b["seed"], b["seconds"]) != (n["seed"], n["seconds"])
    ]
    if mismatched:
        print("refusing to compare runs made with different seeds or run lengths:")
        for line in mismatched:
            print(f"  {line}")
        return 2
    status = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        pairs = list(zip(b_runs, n_runs))
        base_first = [b["started"] < n["started"] for b, n in pairs]
        alternated = all(x != y for x, y in zip(base_first, base_first[1:]))
        print(f"\n{workload}: {len(pairs)} pairs"
              + ("" if alternated else " (order did not alternate: no gain claimed)"))
        for metric in spec["end_to_end"]:
            b = _values(b_runs[:len(pairs)], "metrics", metric["name"])
            n = _values(n_runs[:len(pairs)], "metrics", metric["name"])
            if not b or not n:
                continue
            result = verdict(b, n, metric["better"], metric["bound"], alternated)
            if result == "regression":
                status = 1
            _, bm, _ = quartiles(b)
            _, nm, _ = quartiles(n)
            print(f"  {metric['name']:<16} {bm:>12.4f} -> {nm:>12.4f} {metric['unit']:<6}"
                  f" {(nm - bm) / bm:+8.1%}  {result}")
        b_fail, n_fail = fail_share(b_runs), fail_share(n_runs)
        if n_fail > b_fail:
            status = 1
            print(f"  fail_share increased: {b_fail:.4%} -> {n_fail:.4%}")
        for metric in spec["per_layer"]:
            b = _values(b_runs, "layers", metric["name"])
            n = _values(n_runs, "layers", metric["name"])
            if b and n and (any(b) or any(n)):
                print(f"  {metric['name']:<28} {statistics.median(b):>12.4f} -> "
                      f"{statistics.median(n):>12.4f} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("dirs", nargs="+", type=Path, metavar="OUT_DIR",
                        help="one directory to summarize, or BASE NEW to compare")
    args = parser.parse_args(argv)
    if len(args.dirs) == 1:
        runs, skipped = load_runs(args.dirs[0])
        for line in skipped:
            print(f"# skipped {line}", file=sys.stderr)
        print(json.dumps(summarize(runs), indent=2))
        return 0
    if len(args.dirs) != 2:
        parser.error("give one directory to summarize or two to compare")
    return compare(args.dirs[0], args.dirs[1])


if __name__ == "__main__":
    sys.exit(main())
