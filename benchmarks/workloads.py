"""One benchmark workload, run in its own process.

Usage (``run.py`` starts this after generating the graph)::

    python3 benchmarks/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --data GRAPH_DIR --work WORK_DIR

Every workload drives the same user pipeline through the library's
public functions, sized differently per workload:

1. set-up: ``load_dataset``, model init, ``categorize_relations`` and
   ``build_filter_index``;
2. one ``train()`` call with the training-log CSV on;
3. a checkpoint round trip (``save_checkpoint`` / ``load_checkpoint``)
   of the trained model;
4. ``evaluate()`` of the loaded model on a prefix of the test split, by
   relation category (the CLI's ``eval``), in timed chunks of
   ``CALL_TRIPLES`` triples taken in relation order;
5. ``relation_diagnostics`` on every relation (the CLI's
   ``diagnose --all``), in passes cut into timed slices of
   ``DIAG_SLICE`` calls that alternate with the eval chunks.

Steps 4 and 5 run in ``SETUP_REPEATS`` blocks.  Before the second and
later blocks, set-up and the round trip are repeated, so that set-up is
timed several times and the eval and diagnostics samples cover most of
the run.  Set-up time is the median of its repeats.  The throughput
metrics take the fastest of their samples: the fastest training step,
and the median of the fastest twentieth of the eval chunks and of the
diagnostics slices.  Load from the machine's other tenants only ever
slows a sample, and on a shared host the fastest samples vary least
between runs.

Outputs are checked afterwards, with wrappers removed: the timed eval
reports of ``ORACLE_TRIPLES`` triples' worth of chunks against
brute-force oracle ranks, training losses and entity norms, checkpoint
arrays, diagnostics residuals.  The last stdout line is a JSON record
that ``run.py`` turns into the benchmark result.  ``run.py`` also fixes
the BLAS/OpenMP thread counts and the allocator settings in the
environment before this process imports numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compound_kge  # noqa: E402
from compound_kge import (  # noqa: E402
    checkpoint,
    dataset,
    diagnostics,
    errors,
    evaluation,
    model as model_mod,
    scoring,
    training,
)

from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3
# --seconds is a work-scale factor: the work sizes below are for this
# value and scale with --seconds, so two commits measured with the same
# --seconds do the same work.  The sizes are chosen so that one untraced
# run takes about this many seconds of wall time.
REFERENCE_SECONDS = 50
UNIT_NORM_TOLERANCE = 1e-9
CALL_TRIPLES = 2  # test triples per timed evaluate() call
DIAG_SLICE = 8  # relation_diagnostics calls per timed slice
ORACLE_TRIPLES = 12  # triples of the timed eval chunks checked against the oracle
# the ROADMAP's baseline batch shape, used by both workloads
BATCH_SIZE, NEGATIVE_SIZE, DIM = 512, 128, 200


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None  # None: Full variant, SRT/SRT chains
    norm: str
    learning_rate: float
    margin: float
    train_steps: int
    valid_checks: int  # validations inside train(); 0 puts the interval past the last step
    valid_limit: int
    eval_triples: int
    candidate_block: int | None  # evaluate()'s chunk_size; None keeps its default
    diagnose_passes: int

    def scaled(self, seconds: float) -> "Workload":
        k = seconds / REFERENCE_SECONDS
        return replace(
            self,
            train_steps=max(2, round(self.train_steps * k)),
            eval_triples=max(SETUP_REPEATS * CALL_TRIPLES, round(self.eval_triples * k)),
            diagnose_passes=max(1, round(self.diagnose_passes * k)),
        )

    @property
    def valid_interval(self) -> int:
        if not self.valid_checks:
            return self.train_steps + 1
        return max(1, self.train_steps // self.valid_checks)


# Why these two: see benchmarks/README.md.  Each phase gets a window of
# several seconds, because every workload reports every end-to-end metric
# and a short window swings with the machine's other tenants.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-fb237",
            preset=None,
            norm="l1",
            learning_rate=1e-2,
            margin=6.0,
            train_steps=8,
            valid_checks=0,
            valid_limit=0,
            eval_triples=160,
            # With the default chunk_size the whole 23 MB entity table is
            # one block, and its speed follows how much of the host's
            # shared cache other tenants leave (17-35 queries/s within
            # minutes); 4096-row blocks read steadily.  Ranks are the same.
            # pipeline-wn18rr keeps the default.
            candidate_block=4096,
            diagnose_passes=3,
        ),
        Workload(
            name="pipeline-wn18rr",
            preset="rotate",
            norm="l2",
            learning_rate=3e-2,
            margin=1.0,
            train_steps=12,
            valid_checks=2,
            valid_limit=8,
            eval_triples=80,
            candidate_block=None,
            diagnose_passes=64,
        ),
    )
}


def build_model(w: Workload, store, seed: int):
    rng = np.random.default_rng(seed)
    norm = scoring.Norm(w.norm)
    if w.preset is not None:
        preset = scoring.PRESETS[w.preset](DIM, norm)
        return model_mod.model_from_preset(preset, store.n_entities, store.n_relations, rng)
    spec = scoring.compound_spec("full", "SRT", "SRT", DIM, norm)
    return model_mod.init_model(
        spec, store.n_entities, store.n_relations, rng, shared_rotation=True
    )


def fast_rate(rates) -> float:
    """Median of the fastest twentieth of the samples (at least one)."""
    fast = sorted(rates, reverse=True)[: max(1, len(rates) // 20)]
    return statistics.median(fast)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def oracle_rank(model, all_triples, triple, predict_tail: bool) -> int:
    """Filtered mean-tie rank by brute force over every entity."""
    h, r, t = (int(x) for x in triple)
    params = model.relation_params(r)
    ents = model.entities
    if predict_tail:
        scores = scoring.score(ents[h], params, ents, model.spec)
        same = (all_triples[:, 0] == h) & (all_triples[:, 1] == r)
        known, true_id = all_triples[same, 2], t
    else:
        scores = scoring.score(ents, params, ents[t], model.spec)
        same = (all_triples[:, 1] == r) & (all_triples[:, 2] == t)
        known, true_id = all_triples[same, 0], h
    keep = np.ones(len(scores), dtype=bool)
    keep[known] = False
    keep[true_id] = True
    target = scores[true_id]
    less = int(np.count_nonzero((scores < target) & keep))
    ties = int(np.count_nonzero((scores == target) & keep)) - 1
    return 1 + less + ties // 2


def check_eval(model, store, categories, triples, report) -> tuple[list[str], int]:
    """A timed ``evaluate()`` report of ``triples`` against oracle ranks.

    Every cell of the report must equal ``MetricCell.from_ranks`` over the
    oracle ranks of the same triples, in split order.  Returns the
    problems and the number of queries in cells that differ.
    """
    all_triples = store.all_triples()
    ranks = np.array(
        [[oracle_rank(model, all_triples, t, predict_tail) for predict_tail in (False, True)]
         for t in triples]
    )
    cat_of = {c.relation: c.category.value for c in categories}
    labels = np.array([cat_of[int(r)] for r in triples[:, 1]])
    problems, failed = [], 0
    for j, direction in enumerate(("head", "tail")):
        got = report.by_direction_category[direction]
        want = {
            c: evaluation.MetricCell.from_ranks(ranks[labels == c, j]) for c in sorted(set(labels))
        }
        for cat in sorted(set(got) | set(want)):
            if got.get(cat) != want.get(cat):
                cell = want.get(cat) or got[cat]
                failed += cell.count
                problems.append(
                    f"{direction} {cat}: report {got.get(cat)} != oracle {want.get(cat)}"
                )
    overall = evaluation.MetricCell.from_ranks(ranks.ravel())
    if (report.mrr, report.hits1, report.hits3, report.hits10, report.triple_count) != (
        overall.mrr, overall.hits1, overall.hits3, overall.hits10, len(triples)
    ):
        problems.append(f"overall: report {report.mrr} != oracle {overall.mrr}")
    return problems, failed


def repeated_pairs(triples) -> int:
    """Triples that share their relation, so also both (relation, direction)
    pairs, with another triple of ``triples``."""
    counts = np.bincount(triples[:, 1])
    return int(counts[counts > 1].sum())


def check_training(log_rows, model) -> list[str]:
    problems = []
    losses = [row[1] for row in log_rows]
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite training loss")
    worst = float(np.max(np.abs(np.linalg.norm(model.entities, axis=1) - 1.0)))
    if worst > UNIT_NORM_TOLERANCE:
        problems.append(f"entity norms off unit by {worst:.3g}")
    if not final_loss(log_rows) < losses[0]:
        problems.append(f"final loss {final_loss(log_rows)} not below first {losses[0]}")
    return problems


def _tables(m) -> dict:
    return {
        "entities": m.entities,
        **{f"head.{k}": getattr(m.head, k) for k in ("translations", "angles", "scales")},
        **{f"tail.{k}": getattr(m.tail, k) for k in ("translations", "angles", "scales")},
    }


def checkpoint_mismatches(saved, loaded) -> list[str]:
    """Differences between ``loaded`` and ``saved`` rounded to float32."""
    problems = []
    want = _tables(saved)
    for name, got in _tables(loaded).items():
        if not np.array_equal(got, want[name].astype(np.float32).astype(np.float64)):
            problems.append(f"checkpoint array {name} differs")
    if loaded.spec != saved.spec or loaded.step != saved.step:
        problems.append("checkpoint header differs")
    return problems


def check_diagnostics(model, results) -> list[str]:
    problems = []
    for d in results:
        fields = (d.singularity_fraction, d.block_det_min)
        if not all(math.isfinite(x) for x in fields):
            problems.append(f"relation {d.relation}: non-finite diagnostics {fields}")
        if math.isfinite(d.symmetry_residual):
            continue
        # NaN is the documented value when every block has a singular side
        m, m_hat = diagnostics.relation_matrices(model.relation_params(d.relation), model.spec)
        tol = diagnostics.EXACT_SCALE_TOLERANCE
        singular = (np.abs(np.linalg.det(m[:, :2, :2])) < tol) | (
            np.abs(np.linalg.det(m_hat[:, :2, :2])) < tol
        )
        if not (math.isnan(d.symmetry_residual) and np.all(singular)):
            problems.append(f"relation {d.relation}: residual {d.symmetry_residual}")
    return problems


def final_loss(log_rows) -> float:
    """Mean loss over the last quarter of the logged steps (at least one)."""
    tail = max(1, len(log_rows) // 4)
    return float(np.mean([row[1] for row in log_rows[-tail:]]))


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

def run(w: Workload, seed: int, data_dir: Path, work_dir: Path, trace: bool) -> dict:
    tracer = Tracer(compound_kge) if trace else None
    if tracer:
        tracer.install()

    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        store = dataset.load_dataset(data_dir)
        model = build_model(w, store, seed)
        categories = dataset.categorize_relations(store)
        filter_index = dataset.build_filter_index(store)
        setup_times.append(time.perf_counter() - t0)
        return store, model, categories, filter_index

    store, model, categories, filter_index = set_up()
    config = training.TrainConfig(
        learning_rate=w.learning_rate,
        batch_size=BATCH_SIZE,
        negative_size=NEGATIVE_SIZE,
        margin=w.margin,
        max_steps=w.train_steps,
        seed=seed,
        valid_interval=w.valid_interval,
        valid_limit=w.valid_limit or None,
    )
    log_path = work_dir / "training_log.csv"
    try:
        result, train_s = timed(training.train, store, model, config, log_path=log_path)
    except errors.TrainingDivergedError as exc:
        # the failing step and every step after it count as failed
        return {
            "metrics": {},
            "attempted": w.train_steps,
            "failed": w.train_steps - exc.step,
            "problems": [str(exc)],
        }
    trained = result.model
    steps = step_times(log_path)
    # train() wall time with every plain step's time replaced by the fastest
    # step time; the filter index, validations and snapshots count as timed
    steady_train_s = train_s
    if steps:
        steady_train_s += len(steps) * min(steps) - sum(steps)

    ckpt_path = work_dir / "model.ckpt"
    ckpt = checkpoint.Checkpoint(trained, store.entity_names, store.relation_names)
    roundtrip_times, loaded_models = [], []

    def round_trip():
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(ckpt_path, ckpt)
        loaded = checkpoint.load_checkpoint(ckpt_path).model
        roundtrip_times.append(time.perf_counter() - t0)
        loaded_models.append(loaded)
        return loaded

    loaded = round_trip()

    # The prefix is ranked in relation order, so queries that share a
    # relation share a timed evaluate() call, as they would in a call over
    # the whole split.  Eval chunks alternate with diagnostics slices, and
    # the repeated set-ups and round trips are spread between them, so the
    # samples of both metrics cover most of the run: load from the machine's
    # other tenants shifts over seconds to minutes.
    eval_triples = store.test[: w.eval_triples]
    eval_triples = eval_triples[np.argsort(eval_triples[:, 1], kind="stable")]
    chunks = np.array_split(eval_triples, math.ceil(len(eval_triples) / CALL_TRIPLES))
    block = {} if w.candidate_block is None else {"chunk_size": w.candidate_block}
    diag_calls = [r for _ in range(w.diagnose_passes) for r in range(loaded.n_relations)]
    slices = np.array_split(diag_calls, math.ceil(len(diag_calls) / DIAG_SLICE))
    slices_per_chunk = np.array_split(np.arange(len(slices)), len(chunks))
    eval_rates, diag_rates, reports, diag = [], [], [], []
    for b, chunk_ids in enumerate(np.array_split(np.arange(len(chunks)), SETUP_REPEATS)):
        if b:
            set_up()
            round_trip()
        for i in chunk_ids:
            report, dt = timed(
                evaluation.evaluate, loaded, replace(store, test=chunks[i]), "test", categories,
                filter_index=filter_index, **block,
            )
            eval_rates.append(2 * len(chunks[i]) / dt)
            reports.append(report)
            for j in slices_per_chunk[i]:
                results, dt = timed(
                    lambda: [diagnostics.relation_diagnostics(loaded, int(r)) for r in slices[j]]
                )
                diag_rates.append(len(slices[j]) / dt)
                diag += results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()

    ckpt_problems = [checkpoint_mismatches(trained, m) for m in loaded_models]
    diag_problems = check_diagnostics(loaded, diag)
    # the oracle costs as much as eval itself, so only whole timed chunks
    # are checked: those where most triples share a relation with another
    checked = sorted(range(len(chunks)), key=lambda i: (-repeated_pairs(chunks[i]), i))
    checked = checked[: math.ceil(ORACLE_TRIPLES / CALL_TRIPLES)]
    eval_problems, eval_failed = [], 0
    for i in checked:
        found, n_failed = check_eval(loaded, store, categories, chunks[i], reports[i])
        eval_problems += found
        eval_failed += n_failed
    problems = check_training(result.log_rows, trained) + diag_problems + eval_problems
    problems += [p for ps in ckpt_problems for p in ps]

    n_queries = 2 * len(eval_triples)
    metrics = {
        "setup_s": statistics.median(setup_times) + statistics.median(roundtrip_times),
        "train_pos_per_s": BATCH_SIZE * w.train_steps / steady_train_s,
        "train_loss_final": final_loss(result.log_rows),
        "eval_queries_per_s": fast_rate(eval_rates),
        "diagnose_relations_per_s": fast_rate(diag_rates),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = w.train_steps + n_queries + SETUP_REPEATS + len(diag_calls)
    failed = eval_failed + sum(map(bool, ckpt_problems)) + len(diag_problems)

    descriptors = describe(store, categories, filter_index, eval_triples, loaded)
    descriptors["eval_chunk_size"] = w.candidate_block  # None: evaluate()'s default
    descriptors["oracle_checked"] = {
        "queries": sum(2 * len(chunks[i]) for i in checked),
        "triples_sharing_a_relation": sum(repeated_pairs(chunks[i]) for i in checked),
    }
    out = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "descriptors": descriptors,
        "step_times": steps,
    }
    if tracer:
        out["trace"] = layer_metrics(tracer, n_queries_traced=count_queries(w))
    return out


def describe(store, categories, filter_index, eval_triples, model) -> dict:
    """Workload descriptors: recorded with the result, not gated."""
    by_cat: dict[str, list[int]] = {}
    train_rel = np.bincount(store.train[:, 1], minlength=store.n_relations)
    for c in categories:
        entry = by_cat.setdefault(c.category.value, [0, 0])
        entry[0] += 1
        entry[1] += int(train_rel[c.relation])
    # known-true candidates other than the answer, per query
    filtered = [
        len(filter_index.true_tails(int(h), int(r)))
        + len(filter_index.true_heads(int(r), int(t)))
        - 2
        for h, r, t in eval_triples
    ]
    return {
        "relation_categories": {
            k: {"relations": v[0], "train_share": round(v[1] / len(store.train), 4)}
            for k, v in sorted(by_cat.items())
        },
        "queries_per_relation_direction": len(eval_triples) / len(set(eval_triples[:, 1].tolist())),
        "mean_filter_entries_per_query": float(np.mean(filtered)) / 2,
        "entity_table_bytes": int(model.entities.nbytes),
        "eval_queries": 2 * len(eval_triples),
        "numpy": np.__version__,
    }


def step_times(log_path: Path) -> list[float]:
    """Per-step wall times from training_log.csv, validation steps left out."""
    times, prev = [], 0.0
    with open(log_path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            elapsed = float(row["elapsed_seconds"])
            if not row["valid_mrr"]:
                times.append(elapsed - prev)
            prev = elapsed
    return times


def count_queries(w: Workload) -> int:
    """Queries ranked in the timed phases: validation inside train() and eval."""
    validations = w.train_steps // w.valid_interval
    return 2 * (validations * w.valid_limit + w.eval_triples)


def layer_metrics(tracer: Tracer, n_queries_traced: int) -> dict:
    v = tracer.value
    out = {}
    fields = {
        "training.train_step": ("calls", "busy_s", "self_s"),
        "training.batch_loss_and_grads": ("busy_s", "self_s"),
        "transforms.chain_forward_tape": ("busy_s", "bytes_computed"),
        "transforms.chain_backward": ("busy_s", "bytes_computed"),
        "scoring.norm_and_grad": ("busy_s",),
        "training.accumulate_rows": ("busy_s", "rows_in", "rows_out"),
        "training.optimizer_update": ("calls", "busy_s", "rows"),
        "dataset.build_filter_index": ("calls", "busy_s"),
        "model.copy": ("calls", "busy_s"),
        "evaluation.evaluate": ("calls", "busy_s"),
        "evaluation.filtered_rank": ("calls", "self_s"),
        "evaluation.score_block": ("self_s",),
        "transforms.apply_chain": ("busy_s", "rows", "bytes_computed"),
        "dataset.load_dataset": ("busy_s",),
        "dataset.categorize_relations": ("busy_s",),
        "model.init_model": ("busy_s",),
        "checkpoint.save_checkpoint": ("busy_s", "bytes"),
        "checkpoint.load_checkpoint": ("busy_s",),
        "diagnostics.relation_diagnostics": ("calls", "busy_s"),
    }
    for label, names in fields.items():
        for name in names:
            out[f"{label}.{name}"] = v(label, name)
    step_busy = v("training.train_step", "busy_s")
    for label in ("transforms.chain_backward", "training.accumulate_rows"):
        busy = v(label, "busy_s")
        out[f"{label}.step_share"] = (
            busy / step_busy if busy is not None and step_busy else None
        )
    rows = v("transforms.apply_chain", "rows")
    out["evaluation.candidate_rows_per_query"] = (
        rows / n_queries_traced if rows is not None else None
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload].scaled(args.seconds)
    out = run(w, args.seed, args.data, args.work, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
