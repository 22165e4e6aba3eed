"""Bounded single-CPU benchmark run on WN18RR (soft target).

Needs the WN18RR split files under ``$COMPOUND_KGE_DATA/WN18RR`` (or
``./data/WN18RR``); they are a standard public benchmark and are not
bundled with this repository.  The configuration is the two-sided
R.S.T / S.T form at dimension 200.  Expect a few hours of CPU time for
the full step budget; pass ``--steps`` to shorten it.  The final
filtered test MRR is reported against a 0.35 soft target together with
the training-curve CSV; a shortfall is reported, not raised.
"""

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from compound_kge.dataset import categorize_relations, load_dataset
from compound_kge.evaluation import evaluate
from compound_kge.model import init_model
from compound_kge.scoring import compound_spec
from compound_kge.training import TrainConfig, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=60000)
    parser.add_argument("--dim", type=int, default=200)
    parser.add_argument("--out", default="demo_outputs/wn18rr")
    args = parser.parse_args()

    data_root = Path(os.environ.get("COMPOUND_KGE_DATA", "data")) / "WN18RR"
    if not (data_root / "train.txt").exists():
        print(
            f"WN18RR not found at {data_root}; set COMPOUND_KGE_DATA to a "
            "directory containing WN18RR/train.txt, valid.txt, test.txt",
            file=sys.stderr,
        )
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store = load_dataset(data_root)
    print(
        f"WN18RR: {store.n_entities} entities, {store.n_relations} relations, "
        f"{len(store.train)} training triples"
    )

    spec = compound_spec("full", "RST", "ST", dim=args.dim)
    model = init_model(
        spec, store.n_entities, store.n_relations, np.random.default_rng(0)
    )
    config = TrainConfig(
        learning_rate=1e-3,
        batch_size=512,
        negative_size=64,
        adversarial_temperature=0.5,
        margin=6.0,
        max_steps=args.steps,
        seed=0,
        valid_interval=max(args.steps // 10, 1),
        valid_limit=500,
    )
    log_path = out / "training_log.csv"
    start = time.monotonic()
    result = train(store, model, config, log_path=log_path)
    hours = (time.monotonic() - start) / 3600

    cats = categorize_relations(store)
    report = evaluate(result.best_model, store, "test", cats)
    print(report.to_text())
    print(f"\ntraining curve: {log_path}")
    print(f"wall time: {hours:.2f} h for {args.steps} steps")
    verdict = "meets" if report.mrr >= 0.35 else "falls short of"
    print(f"filtered test MRR {report.mrr:.4f} {verdict} the 0.35 soft target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
