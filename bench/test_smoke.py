"""Smoke test of the benchmark itself: python3 -m pytest -q bench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import puriscope  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_cycle_passes_every_check(name, tmp_path):
    workload = workloads.build(name, tmp_path)
    out = run._run_ops(workload, 3, 0, cycles=1)
    assert out["attempted"] == len(workload.kinds)
    assert out["failed"] == 0, out["problems"]
    assert run._cell_report(out["cells"])[1] == []


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracing_changes_no_value_and_restores_bindings(name, tmp_path):
    workload = workloads.build(name, tmp_path)
    originals = {
        (mod, attr): getattr(sys.modules[f"puriscope.{mod}"], attr)
        for mod, attr in [("measurement", "tomography"), ("estimators", "tomography"), ("channels", "eigh")]
    }
    plain = run._run_ops(workload, 5, 0, cycles=1)
    with tracing.Tracer() as tracer:
        # every binding of a traced name is the same wrapper
        assert puriscope.estimators.tomography is puriscope.measurement.tomography
        assert puriscope.measurement.eigh is puriscope.core.eigh is puriscope.channels.eigh
        assert puriscope.core.eigh is not originals[("channels", "eigh")]
        traced = run._run_ops(workload, 5, 0, cycles=1, tracer=tracer)
    assert plain["values"] == traced["values"]
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[f"puriscope.{mod}"], attr) is original
    layers = tracer.layer_totals()
    assert layers["core.eigh"]["calls"] > 0 and layers["core.eigh"]["d3_sum"] > 0
    assert layers["core.DensityMatrix.validate"]["calls"] > 0
    for row in layers.values():
        assert row["self_ms"] <= row["total_ms"] + 1e-9


def test_metric_names_match_benchmark_json(tmp_path):
    workload = workloads.build("small-payload", tmp_path)
    record = run._traced(workload, type("Args", (), {"seed": 1, "seconds": 0.1, "spans": None})())
    assert record["failed"] == 0, record["problems"]
    assert set(run._layer_metrics(record)) == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in SPEC["end_to_end"]}
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-payload", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
