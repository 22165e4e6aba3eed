"""Command-line interface: train, eval, categorize, diagnose.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every train
run prints its fully resolved configuration and persists it next to the
checkpoints, so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import itertools
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_mod
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .dataset import categorize_relations, complex_triple_fraction, load_dataset
from .diagnostics import (
    export_entity_embeddings,
    export_relation_histograms,
    relation_diagnostics,
)
from .errors import CheckpointError, DatasetError, TrainingDivergedError
from .evaluation import evaluate
from .model import init_model, model_from_preset
from .scoring import PRESETS, Norm, compound_spec
from .training import TrainConfig, train
from .transforms import chain_from_string

USAGE_ERROR = 2

ORDER_TOKENS_HINT = "order strings use the letters T, R, S, each at most once"


@dataclasses.dataclass
class RunConfig:
    """Fully resolved description of one training run."""

    data: str
    variant: str = "full"
    head_order: str = "SRT"
    tail_order: str = "SRT"
    preset: str | None = None
    dim: int = 200
    norm: str = "l1"
    shared_rotation: bool = True
    learning_rate: float = 1e-3
    batch_size: int = 256
    neg_size: int = 64
    alpha: float = 1.0
    margin: float = 6.0
    steps: int = 10000
    seed: int = 0
    valid_interval: int = 1000
    valid_limit: int | None = None
    save: str | None = None
    deterministic: bool = False

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a ``to_json`` text; malformed input raises ValueError."""
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError(f"run config must be a JSON object, got {type(values).__name__}")
        unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"run config has unknown key {unknown[0]!r}")
        if "data" not in values:
            raise ValueError("run config is missing 'data'")
        hints = typing.get_type_hints(cls)
        for key, value in values.items():
            allowed = typing.get_args(hints[key]) or (hints[key],)
            # JSON has one number type: an integer is a valid float value
            if type(value) not in allowed and not (float in allowed and type(value) is int):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"run config {key!r} must be {names}, got {value!r:.60}")
        if values.get("preset") is not None and values["preset"] not in PRESETS:
            raise ValueError(
                f"run config 'preset' must be one of {', '.join(sorted(PRESETS))} or null, "
                f"got {values['preset']!r:.60}"
            )
        return cls(**values)


def run_config_from_args(args) -> RunConfig:
    """The RunConfig of a parsed ``train`` command line.  Train options
    are stored under RunConfig field names; one left unset (None) takes
    the RunConfig default."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in names and v is not None})


def _build_model(config: RunConfig, n_entities: int, n_relations: int):
    rng = np.random.default_rng(config.seed)
    if config.preset is not None:
        preset = PRESETS[config.preset](config.dim, Norm(config.norm.lower()))
        return model_from_preset(preset, n_entities, n_relations, rng)
    spec = compound_spec(
        config.variant, config.head_order, config.tail_order, config.dim, config.norm
    )
    return init_model(
        spec, n_entities, n_relations, rng, shared_rotation=config.shared_rotation
    )


def _train_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        negative_size=config.neg_size,
        adversarial_temperature=config.alpha,
        margin=config.margin,
        max_steps=config.steps,
        seed=config.seed,
        valid_interval=config.valid_interval,
        valid_limit=config.valid_limit,
    )


def cmd_train(args) -> int:
    if args.config:
        # replay a persisted run_config.json exactly; --save may redirect
        config = RunConfig.from_json(Path(args.config).read_text())
        if args.save:
            config.save = args.save
    else:
        if not args.data:
            print("error: --data is required (or pass --config)", file=sys.stderr)
            return USAGE_ERROR
        if args.preset and (args.head_order or args.tail_order):
            print(
                "error: --preset conflicts with explicit --head-order/--tail-order",
                file=sys.stderr,
            )
            return USAGE_ERROR
        for flag, value in (
            ("--head-order", args.head_order),
            ("--tail-order", args.tail_order),
        ):
            if value:
                try:
                    chain_from_string(value)
                except ValueError as exc:
                    print(f"error: {flag}: {exc} ({ORDER_TOKENS_HINT})", file=sys.stderr)
                    return USAGE_ERROR
        config = run_config_from_args(args)
    print(config.to_json())
    train_config = _train_config(config)

    store = load_dataset(config.data)
    print(
        f"dataset: {store.n_entities} entities, {store.n_relations} relations, "
        f"{len(store.train)}/{len(store.valid)}/{len(store.test)} triples"
    )
    model = _build_model(config, store.n_entities, store.n_relations)

    save_dir = Path(config.save) if config.save else None
    log_path = None
    if save_dir:
        save_dir.mkdir(parents=True, exist_ok=True)
        (save_dir / "run_config.json").write_text(config.to_json() + "\n")
        log_path = save_dir / "training_log.csv"

    result = train(store, model, train_config, log_path=log_path)

    if save_dir:
        for name, m, state in (
            ("last", result.model, result.final_rng_state),
            ("best", result.best_model, result.best_rng_state),
        ):
            save_checkpoint(
                save_dir / f"{name}.ckpt",
                Checkpoint(
                    model=m,
                    entity_names=store.entity_names,
                    relation_names=store.relation_names,
                    rng_state=state,
                ),
            )
        print(f"checkpoints written to {save_dir}")

    if len(store.valid):
        categories = categorize_relations(store)
        report = evaluate(result.best_model, store, "valid", categories)
        print("final validation metrics (best checkpoint):")
        print(report.to_text())
    else:
        print("validation split empty; skipping final metrics")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    store = load_dataset(args.data)
    # the checkpoint's own name lists against the dataset's
    for kind, saved, loaded in (
        ("entity", ckpt.entity_names, store.entity_names),
        ("relation", ckpt.relation_names, store.relation_names),
    ):
        if saved != loaded:
            pairs = itertools.zip_longest(saved, loaded)  # None past a list's end
            i = next(i for i, (x, y) in enumerate(pairs) if x != y)
            x, y = (repr(names[i]) if i < len(names) else "absent" for names in (saved, loaded))
            print(
                f"error: checkpoint/dataset mismatch: {kind} {i} is {x} in the checkpoint, "
                f"{y} in the dataset ({len(saved)} and {len(loaded)} {kind} names)",
                file=sys.stderr,
            )
            return 1
    categories = categorize_relations(store, eta=args.eta)
    report = evaluate(ckpt.model, store, args.split, categories)
    print(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_json(indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0


def cmd_categorize(args) -> int:
    store = load_dataset(args.data)
    categories = categorize_relations(store, eta=args.eta)
    print(f"{'relation':<40} {'hpt':>8} {'tph':>8}  category")
    for cat in categories:
        name = store.relation_names[cat.relation]
        flag = "" if cat.in_training else "  (not in training split)"
        print(
            f"{name:<40} {cat.hpt:>8.3f} {cat.tph:>8.3f}  {cat.category.value}{flag}"
        )
    fraction = complex_triple_fraction(store, categories)
    print(f"fraction of training triples with non-1-to-1 relations: {fraction:.4f}")
    return 0


def cmd_diagnose(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = ckpt.model
    names = ckpt.relation_names

    if args.all:
        rids = list(range(model.n_relations))
    else:
        if args.relation not in names:
            close = difflib.get_close_matches(args.relation, names, n=3)
            hint = f"; closest names: {close}" if close else ""
            print(f"error: unknown relation {args.relation!r}{hint}", file=sys.stderr)
            return 1
        rids = [names.index(args.relation)]

    print(
        f"{'relation':<40} {'sing_frac':>10} {'det_min':>12} "
        f"{'sym_residual':>13} {'sing_blocks':>12}"
    )
    for rid in rids:
        d = relation_diagnostics(model, rid)
        residual = "n/a" if math.isnan(d.symmetry_residual) else f"{d.symmetry_residual:.6f}"
        print(
            f"{names[rid]:<40} {d.singularity_fraction:>10.4f} "
            f"{d.block_det_min:>12.4e} {residual:>13} {d.singular_blocks:>12d}"
        )

    if args.export_histograms:
        out_dir = Path(args.export_histograms)
        out_dir.mkdir(parents=True, exist_ok=True)
        for rid in rids:
            safe = names[rid].replace("/", "_").replace(" ", "_") or f"relation_{rid}"
            export_relation_histograms(
                model, rid, bins=args.bins, out_path=out_dir / f"{safe}.csv"
            )
        print(f"histograms written to {out_dir}")
    if args.export_embeddings:
        n = export_entity_embeddings(
            model, ckpt.entity_names, args.export_embeddings, args.labels
        )
        print(f"{n} entity embeddings written to {args.export_embeddings}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compound-kge",
        description="Knowledge-graph embedding with compound geometric operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every train option but --config stores under its RunConfig field name
    # and stays None when unset, so the defaults are RunConfig's
    p_train = sub.add_parser("train", help="train a model on a triple directory")
    p_train.add_argument("--data", help="dataset directory")
    p_train.add_argument("--config", help="replay a persisted run_config.json")
    p_train.add_argument("--variant", choices=["head", "tail", "full"])
    p_train.add_argument("--head-order", help="head operator product, e.g. SRT")
    p_train.add_argument("--tail-order", help="tail operator product, e.g. SRT")
    p_train.add_argument("--preset", choices=sorted(PRESETS))
    p_train.add_argument("--dim", type=int)
    p_train.add_argument("--lr", dest="learning_rate", type=float)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--neg-size", type=int)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--margin", type=float)
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--norm", choices=["l1", "l2"])
    p_train.add_argument("--valid-interval", type=int)
    p_train.add_argument("--valid-limit", type=int, help="cap validation triples")
    p_train.add_argument(
        "--no-shared-rotation",
        dest="shared_rotation",
        action="store_false",
        default=None,
        help="give head and tail chains independent rotation angles",
    )
    p_train.add_argument("--save", help="directory for checkpoints")
    p_train.add_argument(
        "--deterministic",
        action="store_true",
        default=None,
        help="recorded in run_config.json; every run is repeatable, at 1 or 2 BLAS threads alike",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=["valid", "test"], default="test")
    p_eval.add_argument("--eta", type=float, default=1.5)
    p_eval.add_argument("--out", default=None, help="write the JSON report here")
    p_eval.set_defaults(func=cmd_eval)

    p_cat = sub.add_parser("categorize", help="relation cardinality categories")
    p_cat.add_argument("--data", required=True)
    p_cat.add_argument("--eta", type=float, default=1.5)
    p_cat.set_defaults(func=cmd_categorize)

    p_diag = sub.add_parser("diagnose", help="operator diagnostics of a checkpoint")
    p_diag.add_argument("--checkpoint", required=True)
    group = p_diag.add_mutually_exclusive_group(required=True)
    group.add_argument("--relation", help="relation name")
    group.add_argument("--all", action="store_true")
    p_diag.add_argument("--export-histograms", default=None, help="output directory")
    p_diag.add_argument("--export-embeddings", default=None, help="output CSV path")
    p_diag.add_argument("--labels", default=None, help="entity label file (TSV)")
    p_diag.add_argument("--bins", type=int, default=50)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        DatasetError, CheckpointError, TrainingDivergedError, OSError, ValueError, KeyError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
