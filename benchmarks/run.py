"""Benchmark of compound_kge: a train-to-eval pipeline on FB15k-237- and
WN18RR-shaped synthetic graphs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` (the default) runs every workload in turn.  For each
workload this script

1. generates the graph for ``--seed`` in a child process
   (``graphs.py``), so the generator's time and memory are not measured;
2. runs the workload untraced in a second child process
   (``workloads.py``), so ``peak_rss_mb`` belongs to that workload alone;
3. with ``--trace 1``, runs it again with span wrappers installed, and
   reports per-layer metrics plus the tracing overhead on every
   end-to-end metric.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Earlier lines carry the
workload descriptors and provenance.  Everything is written under
``benchmarks/.work`` and removed on exit.  Run from the repository root;
without ``src/compound_kge`` next to this directory it exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "compound_kge"
WORK_ROOT = HERE / ".work"
TIME_LIMIT_S = 170

# Workload name -> graph shape.  The rest of each workload's definition is
# in workloads.py, which imports numpy and so runs only in child processes.
WORKLOAD_SHAPES = {
    "pipeline-fb237": "fb237",
    "pipeline-wn18rr": "wn18rr",
}
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metrics as BENCHMARK.json declares them:
    name -> {"unit": ..., "better": ...}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple(
        {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


class BenchError(RuntimeError):
    pass


# Allocation is pinned so that it behaves the same in every run.  Left to
# glibc's defaults, whether an entity-table-sized array reused heap memory
# or faulted in fresh pages depended on what the process had freed before,
# and whether numpy's huge-page advice was honoured depended on the host's
# free memory; FB eval swung between 16 and 44 queries/s across runs.  Here
# every array comes from a heap that is never trimmed (so pages are faulted
# once, then reused) and no huge pages are requested.
ALLOCATOR_ENV = {
    "GLIBC_TUNABLES": "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967295",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    env.update(ALLOCATOR_ENV)
    env.pop("COMPOUND_KGE_THREADS", None)
    return env


def run_child(args: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(args[0]).name} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} failed:\n{proc.stderr[-4000:]}")
    return proc.stdout


def provenance(seed: int) -> dict:
    sha = None
    # only this checkout's own repository; git would otherwise search upwards
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_digest": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": {v: THREADS for v in THREAD_VARS},
        "allocator": ALLOCATOR_ENV,
        "seed": seed,
    }


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percent, value) of the highest percentile with at least ten samples
    beyond it; the median when there are fewer than twenty samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 50.0, statistics.median(xs)
    k = n - 11  # ten samples lie beyond xs[k]
    return 100.0 * (k + 1) / n, xs[k]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    data = work / "graph"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_child(
            [str(HERE / "graphs.py"), "--shape", WORKLOAD_SHAPES[name], "--seed", str(seed),
             "--out", str(data)],
            deadline,
        )
        graph_info = json.loads((data / "graph.json").read_text())
        runs = {}
        for traced in (False, True) if trace else (False,):
            run_dir = work / ("traced" if traced else "untraced")
            run_dir.mkdir()
            out = run_child(
                [str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced)),
                 "--data", str(data), "--work", str(run_dir)],
                deadline,
            )
            runs[traced] = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    base = runs[False]
    record = {
        "attempted": base["attempted"],
        "failed": base["failed"],
        "problems": base["problems"],
        "info": {"workload": name, "graph": graph_info, **base.get("descriptors", {})},
    }
    end_to_end, per_layer = declared_metrics()
    if not trace:
        record["metrics"] = {
            k: {"value": base["metrics"].get(k), "unit": m["unit"]} for k, m in end_to_end.items()
        }
        return record

    traced = runs[True]
    record["problems"] = base["problems"] + traced["problems"]
    record["failed"] += traced["failed"]
    record["attempted"] += traced["attempted"]
    layers = dict(traced.get("trace", {}))
    steps = base.get("step_times", [])
    pct, tail = tail_percentile(steps) if steps else (None, None)
    layers["training.train_step.p50_s"] = statistics.median(steps) if steps else None
    layers["training.train_step.tail_s"] = tail
    layers["training.train_step.tail_pct"] = pct
    layers["training.train_step.samples"] = len(steps)
    for metric, m in end_to_end.items():
        a, b = base["metrics"].get(metric), traced["metrics"].get(metric)
        if a is None or b is None:
            frac = None
        elif m["better"] == "higher":
            frac = a / b - 1.0
        else:
            frac = b / a - 1.0
        layers[f"trace.overhead_frac.{metric}"] = frac
    record["metrics"] = {
        k: {"value": layers.get(k), "unit": m["unit"]} for k, m in per_layer.items()
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOAD_SHAPES])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOAD_SHAPES) if args.workload == "all" else [args.workload]
    print(json.dumps({"provenance": provenance(args.seed)}))
    results = {}
    for name in names:
        try:
            record = run_workload(
                name, args.seed, args.seconds, bool(args.trace), time.monotonic() + TIME_LIMIT_S
            )
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for problem in record["problems"]:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
        print(json.dumps({"info": record["info"]}))
        for metric, m in record["metrics"].items():
            print(f"{name:16s} {metric:48s} {m['value']!s:>22} {m['unit']}")
        results[name] = record

    if len(results) == 1:
        metrics = record["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] and r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
