"""Smoke run of the in-repo benchmark at its smallest scale.

The benchmark calls the library the way a user would (train, checkpoint,
eval, diagnose); a library change that breaks one of those calls fails
here first.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import compound_kge

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_pipeline_wn18rr_runs_clean():
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/run.py",
            "--workload", "pipeline-wn18rr",
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-4000:]
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in declared["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] is not None, metric["name"]


def test_every_traced_library_name_exists(monkeypatch):
    """A refactor that drops or renames a name the benchmark traces (such
    as ``training.chain_backward``) fails here, instead of turning that
    name's per-layer metrics silently to null."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(compound_kge)
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
    assert not hasattr(compound_kge.training.chain_backward, "__wrapped__")
