"""Smoke tests of the benchmark harness.

Every workload runs end to end in ``--smoke`` mode (about 240 antennas,
1 s phases) with the traced repetition on, and must emit every metric
``BENCHMARK.json`` declares, with its unit.  Run with::

    PYTHONPATH=src python -m pytest -q bench/tests

Tier-1's ``testpaths`` is ``tests``, so the tier-1 run does not collect
these.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare
from bench.compare import verdict

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _run(cwd, *args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_metric_and_workload_names_are_valid_and_unique():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert "setup_s" in _units(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, tmp_path):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--smoke",
                "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    # --trace 1 prints the per-layer metrics as the result ...
    layers = {k: v["unit"] for k, v in result["metrics"].items()}
    assert layers == _units(SPEC["per_layer"])
    # ... and the report keeps the end-to-end ones, all measured and non-zero.
    (report_path,) = (tmp_path / "runs").glob(f"{workload}-seed0-*.json")
    report = json.loads(report_path.read_text())
    end_to_end = {k: v["unit"] for k, v in report["metrics"].items()}
    assert end_to_end == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in report["metrics"].values())
    for name, unit in {**end_to_end, **layers}.items():
        assert any(re.fullmatch(rf"{re.escape(workload)} {re.escape(name)} \S+ "
                                rf"{re.escape(unit)}", line) for line in lines), name
    assert report["host"]["cpu_count"] >= 1
    assert (tmp_path / f"trace-{workload}.json").is_file()
    assert (tmp_path / f"layers-{workload}.json").is_file()


def test_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                "--smoke", "--trace", "0", timeout=120)
    assert proc.returncode != 0
    assert "program source not found" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_run_length_is_fixed_by_the_spec():
    proc = _run(ROOT, "--workload", WORKLOADS[0], "--seconds",
                str(SPEC["run_seconds"] + 1), timeout=120)
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr


def _write_run(directory, seed, seconds, started):
    runs = directory / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    report = {"workload": WORKLOADS[0], "seed": seed, "seconds": seconds,
              "smoke": False, "valid": True, "started": started,
              "attempted": 1, "failed": 0,
              "metrics": {"p50_ms": {"value": 1.0, "unit": "ms"}}}
    (runs / f"{seed}-{started}.json").write_text(json.dumps(report))


def test_compare_refuses_runs_of_different_seeds_or_lengths(tmp_path, capsys):
    _write_run(tmp_path / "base", 0, 8.0, 1.0)
    _write_run(tmp_path / "new", 1, 8.0, 2.0)
    assert compare.compare(tmp_path / "base", tmp_path / "new") == 2
    assert "different seeds or run lengths" in capsys.readouterr().out
    _write_run(tmp_path / "same", 0, 8.0, 3.0)
    assert compare.compare(tmp_path / "base", tmp_path / "same") == 0


def test_compare_verdicts():
    base = [100.0 + i % 3 for i in range(10)]
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1, True) == "regression"
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1, True) == "gain"
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1, False) == "no change"
    assert verdict(base[:5], [v * 0.8 for v in base[:5]], "lower", 0.1, True) == "no change"
    assert verdict(base, [v * 1.01 for v in base], "lower", 0.1, True) == "no change"
    assert verdict(base, [v * 1.2 for v in base], "higher", 0.1, True) == "gain"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1, True) == "unresolved"
