"""Smoke tests of the benchmark: every workload, both modes, exact output shape.

    python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    manifest = json.loads(lines[0])["manifest"]
    assert result["correct"] is True, manifest["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert manifest["blas_threads"] in (1, None)
    assert manifest["seed"] == 7 and manifest["samples"]["wall_s"] >= 1


def test_tracer_restores_every_patched_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import spans
    import sampledkf
    from sampledkf import _scalars, kernels, montecarlo, theory

    original = _scalars.phi1
    draw = vars(montecarlo._Simulator)["draw"]
    with spans.Tracer() as tracer:
        assert kernels.phi1 is not original and theory.phi1 is not original
        assert vars(montecarlo._Simulator)["draw"] is not draw
        sampledkf.sequential_filter(sampledkf.build_heat_model(3, 1.0),
                                    [0.5, 1.0])
    assert spans.leftover_wrappers() == []
    assert kernels.phi1 is original and theory.phi1 is original
    assert vars(montecarlo._Simulator)["draw"] is draw
    assert tracer.stats["filter_core.sequential_filter"].calls == 1
    assert tracer.stats["filter_core.recursion"].work == 2


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("telescope", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
