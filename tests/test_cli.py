import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compound_kge
from compound_kge import cli as cli_mod
from compound_kge.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from compound_kge.cli import RunConfig, build_parser, main, run_config_from_args
from compound_kge.dataset import (
    build_filter_index,
    categorize_relations,
    load_dataset,
    save_dictionaries,
    save_splits,
)
from compound_kge.errors import TrainingDivergedError
from compound_kge.evaluation import evaluate
from compound_kge.model import init_model
from compound_kge.scoring import CompoundSpec, Variant, compound_spec
from compound_kge.synthetic import SyntheticPattern, generate_synthetic_kg
from compound_kge.transforms import OperatorKind


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("kg")
    store = generate_synthetic_kg(SyntheticPattern.ANTISYMMETRIC, seed=3)
    save_splits(store, path)
    save_dictionaries(store, path)
    return path


def run_cli(args):
    return main(args)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [4, 7])  # TransE has no rotation, so odd dims are fine
def test_train_zero_steps_writes_short_chain_preset_checkpoint(
    data_dir, tmp_path, capsys, dim
):
    save = tmp_path / "run"
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--preset", "transe",
            "--dim", str(dim),
            "--steps", "0",
            "--save", str(save),
        ]
    )
    assert code == 0
    ckpt = load_checkpoint(save / "last.ckpt")
    assert ckpt.model.preset_name == "transe"
    assert ckpt.model.spec == CompoundSpec(Variant.HEAD, (OperatorKind.TRANSLATION,), (), dim)
    np.testing.assert_array_equal(ckpt.model.head.angles, 0.0)
    np.testing.assert_array_equal(ckpt.model.head.scales, 1.0)
    out = capsys.readouterr().out
    assert '"preset": "transe"' in out  # resolved config echo


def test_train_missing_data_flag_is_usage_error(capsys):
    code = run_cli(["train", "--steps", "0"])
    assert code == 2
    assert "--data is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], RunConfig(data="X")),
        (
            ["--lr", "0.5", "--no-shared-rotation", "--valid-limit", "7", "--deterministic"],
            RunConfig(
                data="X", learning_rate=0.5, shared_rotation=False, valid_limit=7,
                deterministic=True,
            ),
        ),
    ],
)
def test_train_flags_parse_to_run_config(flags, expected):
    args = build_parser().parse_args(["train", "--data", "X", *flags])
    assert run_config_from_args(args) == expected


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_train_replay_from_persisted_config(data_dir, tmp_path):
    first = tmp_path / "first"
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--dim", "8",
            "--steps", "15",
            "--batch-size", "16",
            "--neg-size", "8",
            "--seed", "3",
            "--deterministic",
            "--save", str(first),
        ]
    )
    assert code == 0
    second = tmp_path / "second"
    code = run_cli(
        ["train", "--config", str(first / "run_config.json"), "--save", str(second)]
    )
    assert code == 0
    assert (first / "last.ckpt").read_bytes() == (second / "last.ckpt").read_bytes()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"data": "kg", "epochs": 3}, "unknown key 'epochs'"),
        ({"dim": 8, "steps": 0}, "missing 'data'"),
        (["kg"], "must be a JSON object, got list"),
    ],
)
def test_train_malformed_run_config_fails_cleanly(tmp_path, capsys, config, message):
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run config") and message in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dim", "eight", "'dim' must be int, got 'eight'"),
        ("dim", [8], "'dim' must be int, got [8]"),
        ("steps", 0.5, "'steps' must be int"),
        ("valid_limit", "all", "'valid_limit' must be int or null"),
        ("shared_rotation", "yes", "'shared_rotation' must be bool"),
        ("learning_rate", "fast", "'learning_rate' must be float"),
    ],
)
def test_train_run_config_value_of_wrong_type_fails_cleanly(
    data_dir, tmp_path, capsys, key, value, message
):
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps({"data": str(data_dir), "steps": 0, key: value}))
    assert run_cli(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run config") and message in err


def test_train_run_config_unknown_preset_names_the_presets(data_dir, tmp_path, capsys):
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps({"data": str(data_dir), "steps": 0, "preset": "nosuch"}))
    assert run_cli(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: run config 'preset' must be one of linearre, pairre, rotate, transe "
        "or null, got 'nosuch'\n"
    )


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--lr", "nan", "learning_rate"),
        ("--margin", "nan", "margin"),
        ("--lr", "inf", "learning_rate"),
    ],
)
def test_train_non_finite_hyperparameter_fails_cleanly(
    data_dir, tmp_path, capsys, flag, value, field
):
    save = tmp_path / "run"
    args = ["train", "--data", str(data_dir), "--dim", "8", "--steps", "2", "--save", str(save)]
    assert run_cli(args + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} must be finite, got {float(value)}\n"
    assert not save.exists()


def test_train_divergence_fails_cleanly(data_dir, capsys, monkeypatch):
    def diverge(store, model, config, log_path=None):
        raise TrainingDivergedError(7, [(0, 1, 2)])

    monkeypatch.setattr(cli_mod, "train", diverge)
    assert run_cli(["train", "--data", str(data_dir), "--dim", "8", "--steps", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite loss at step 7; offending triples (h,r,t): [(0, 1, 2)]\n"


def test_train_preset_conflicts_with_order_flags(data_dir, capsys):
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--preset", "transe",
            "--head-order", "SRT",
            "--steps", "0",
        ]
    )
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


def test_train_invalid_order_string(data_dir, capsys):
    code = run_cli(
        ["train", "--data", str(data_dir), "--head-order", "SXT", "--steps", "0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "valid tokens are T, R, S" in err


def test_train_full_flag_set_parses(data_dir, tmp_path):
    # the optimal-configuration flag shapes must all be expressible
    save = tmp_path / "run"
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--variant", "full",
            "--head-order", "SRT",
            "--tail-order", "SRT",
            "--dim", "8",
            "--lr", "0.00005",
            "--batch-size", "16",
            "--neg-size", "8",
            "--alpha", "1",
            "--margin", "6",
            "--steps", "3",
            "--seed", "7",
            "--norm", "l1",
            "--save", str(save),
        ]
    )
    assert code == 0
    config = json.loads((save / "run_config.json").read_text())
    assert config["head_order"] == "SRT" and config["dim"] == 8
    assert (save / "training_log.csv").exists()
    assert (save / "best.ckpt").exists() and (save / "last.ckpt").exists()


def test_train_wn18rr_variant_expressible(data_dir, tmp_path):
    # head product R.S.T with a two-operator tail product S.T
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--variant", "full",
            "--head-order", "RST",
            "--tail-order", "ST",
            "--dim", "8",
            "--steps", "1",
            "--batch-size", "8",
            "--neg-size", "4",
        ]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_run(data_dir, tmp_path_factory):
    save = tmp_path_factory.mktemp("run")
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--dim", "8",
            "--steps", "30",
            "--batch-size", "16",
            "--neg-size", "8",
            "--lr", "0.01",
            "--valid-interval", "15",
            "--save", str(save),
        ]
    )
    assert code == 0
    return save


def test_eval_report_matches_library(data_dir, trained_run, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "eval",
            "--checkpoint", str(trained_run / "best.ckpt"),
            "--data", str(data_dir),
            "--split", "test",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("mrr", "hits1", "hits3", "hits10", "by_direction_category"):
        assert key in payload

    ckpt = load_checkpoint(trained_run / "best.ckpt")
    store = load_dataset(data_dir)
    report = evaluate(ckpt.model, store, "test", categorize_relations(store, 1.5))
    assert payload == json.loads(report.to_json())


def test_eval_perfect_memorization_prints_mrr_one(tmp_path, capsys):
    # a self-loop store plus identical head/tail transforms scores the
    # ground truth at exactly zero, uniquely
    from compound_kge.dataset import TripleStore

    n = 5
    store = TripleStore(
        n_entities=n,
        n_relations=1,
        train=np.array([[i, 0, i] for i in range(n - 2)]),
        valid=np.array([[n - 2, 0, n - 2]]),
        test=np.array([[n - 1, 0, n - 1]]),
        entity_names=[f"e{i}" for i in range(n)],
        relation_names=["same_as"],
    )
    data = tmp_path / "kg"
    save_splits(store, data)
    save_dictionaries(store, data)

    model = init_model(compound_spec("full", "SRT", "SRT", dim=4), n, 1, np.random.default_rng(0))
    model.tail.translations[:] = model.head.translations
    model.tail.angles[:] = model.head.angles
    model.tail.scales[:] = model.head.scales
    ckpt_path = tmp_path / "perfect.ckpt"
    save_checkpoint(ckpt_path, Checkpoint(model, store.entity_names, store.relation_names))
    code = run_cli(
        ["eval", "--checkpoint", str(ckpt_path), "--data", str(data), "--split", "test"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0000" in out


def test_eval_hash_mismatch_refused(trained_run, tmp_path, capsys):
    other = tmp_path / "other_kg"
    store = generate_synthetic_kg(SyntheticPattern.SYMMETRIC, seed=11)
    save_splits(store, other)
    save_dictionaries(store, other)
    # a trained checkpoint, one saved through the API whose 5 entities are
    # fewer than the dataset's, and one with the dataset's names but tables
    # of 5 entities
    hashless = tmp_path / "hashless.ckpt"
    model = init_model(compound_spec("full", "SRT", "SRT", dim=4), 5, 1, np.random.default_rng(0))
    save_checkpoint(hashless, Checkpoint(model, [f"e{i}" for i in range(5)], ["r0"]))
    shrunk = tmp_path / "shrunk.ckpt"
    save_checkpoint(shrunk, Checkpoint(model, store.entity_names, store.relation_names))
    mismatch = "checkpoint/dataset mismatch"
    for ckpt, error in (
        (trained_run / "best.ckpt", mismatch),
        (hashless, mismatch),
        (shrunk, f"checkpoint header has {store.n_entities} entity_names for 5 rows"),
    ):
        code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(other)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert err.count("\n") == 1  # one error line
        if error == mismatch:
            # both checkpoints' entity names are a prefix of the dataset's,
            # so the first name that differs is the dataset's next one
            n = len(load_checkpoint(ckpt).entity_names)
            assert f"entity {n} is absent in the checkpoint, {store.entity_names[n]!r}" in err


def test_eval_v1_checkpoint_with_frozen_non_identity_group_fails_cleanly(
    data_dir, tmp_path, capsys
):
    # a format-1 TransE file whose mask also freezes the (trained) translation
    path = tmp_path / "v1.ckpt"
    raw = (Path(__file__).parent / "data" / "v1_transe.ckpt").read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    assert header["format_version"] == 1
    header["trainable"]["head_translation"] = False
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[12 + length :])
    assert run_cli(["eval", "--checkpoint", str(path), "--data", str(data_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: format-1 checkpoint freezes 'head.translations'")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# categorize
# ---------------------------------------------------------------------------

def test_categorize_toy_matches_hand_count(tmp_path, capsys):
    path = tmp_path / "toy"
    path.mkdir()
    (path / "train.txt").write_text("a\tr\tx\nb\tr\tx\nc\tr\tx\n")
    (path / "valid.txt").write_text("d\tr\tx\n")
    (path / "test.txt").write_text("e\tr\tx\n")
    code = run_cli(["categorize", "--data", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "N-to-1" in out
    assert "3.000" in out and "1.000" in out
    assert "fraction of training triples with non-1-to-1 relations: 1.0000" in out


def test_categorize_eta_zero_all_n_to_n(data_dir, capsys):
    code = run_cli(["categorize", "--data", str(data_dir), "--eta", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "N-to-N" in out
    assert "1-to-1 " not in out.split("fraction")[0].replace("non-1-to-1", "")


def _dataset_with_entity_dict(path, dict_text):
    path.mkdir()
    (path / "train.txt").write_text("a\tr\tb\nc\tr\td\n")
    (path / "valid.txt").write_text("a\tr\td\n")
    (path / "test.txt").write_text("b\tr\ta\n")
    (path / "entities.dict").write_text(dict_text)
    return path


def test_categorize_non_contiguous_entity_ids_fail_cleanly(tmp_path, capsys):
    path = _dataset_with_entity_dict(tmp_path / "gap", "0\ta\n1\tb\n2\tc\n5\td\n")
    code = run_cli(["categorize", "--data", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "entities.dict:4" in err and "0..3" in err


def test_categorize_duplicate_entity_id_fails_cleanly(tmp_path, capsys):
    path = _dataset_with_entity_dict(tmp_path / "dup", "0\ta\n1\tb\n1\tc\n2\td\n")
    code = run_cli(["categorize", "--data", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "entities.dict:3" in err and "id 1 already used on line 2" in err


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("blob", [b"[1, 2]", b'"header"', b"null"])
def test_diagnose_checkpoint_header_not_an_object_fails_cleanly(tmp_path, capsys, blob):
    path = tmp_path / "odd.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
    assert run_cli(["diagnose", "--checkpoint", str(path), "--all"]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoint header is a JSON ")


@pytest.mark.parametrize(
    "key, value",
    [("entity_names", 5), ("n_relations", "2"), ("arrays", [{"name": "entities", "shape": 8}])],
)
def test_diagnose_checkpoint_header_value_of_wrong_type_fails_cleanly(
    tmp_path, capsys, key, value
):
    path = tmp_path / "m.ckpt"
    model = init_model(compound_spec("full", "SRT", "SRT", dim=4), 3, 2, np.random.default_rng(0))
    save_checkpoint(path, Checkpoint(model, ["a", "b", "c"], ["r0", "r1"]))
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    header[key] = value
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[12 + length :])
    assert run_cli(["diagnose", "--checkpoint", str(path), "--all"]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoint header ")


def test_diagnose_identity_checkpoint_zero_residuals(data_dir, tmp_path, capsys):
    save = tmp_path / "run"
    code = run_cli(
        [
            "train",
            "--data", str(data_dir),
            "--dim", "8",
            "--steps", "0",
            "--save", str(save),
        ]
    )
    assert code == 0
    ckpt = load_checkpoint(save / "last.ckpt")
    # zero out the random initialization: identity operators
    ckpt.model.head.translations[:] = 0
    ckpt.model.head.angles[:] = 0
    ckpt.model.tail.translations[:] = 0
    save_checkpoint(save / "identity.ckpt", ckpt)
    capsys.readouterr()
    code = run_cli(["diagnose", "--checkpoint", str(save / "identity.ckpt"), "--all"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.000000" in out


def test_diagnose_all_rows_equal_relation_count(trained_run, capsys):
    code = run_cli(["diagnose", "--checkpoint", str(trained_run / "best.ckpt"), "--all"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    ckpt = load_checkpoint(trained_run / "best.ckpt")
    assert len(out) == 1 + ckpt.model.n_relations  # header + one row each


def test_diagnose_unknown_relation_suggests_names(trained_run, capsys):
    code = run_cli(
        ["diagnose", "--checkpoint", str(trained_run / "best.ckpt"), "--relation", "targed"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown relation" in err
    assert "target" in err


def test_diagnose_exports(trained_run, tmp_path, capsys):
    hist_dir = tmp_path / "hists"
    emb = tmp_path / "emb.csv"
    code = run_cli(
        [
            "diagnose",
            "--checkpoint", str(trained_run / "best.ckpt"),
            "--all",
            "--export-histograms", str(hist_dir),
            "--export-embeddings", str(emb),
        ]
    )
    assert code == 0
    files = list(hist_dir.glob("*.csv"))
    assert len(files) == 1  # one relation in the antisymmetric store
    header = files[0].read_text().splitlines()[0]
    assert header == "component,side,bin_left,bin_right,count"
    assert emb.exists()
    emb_header = emb.read_text().splitlines()[0]
    assert emb_header.startswith("entity_name,dim_0")


@pytest.mark.parametrize("preset", ["transe", "pairre", "linearre"])
def test_rotation_free_preset_at_odd_dim_trains_evaluates_and_diagnoses(
    data_dir, tmp_path, capsys, preset
):
    save = tmp_path / "run"
    train = ["train", "--data", str(data_dir), "--preset", preset, "--dim", "7"]
    assert run_cli(train + ["--steps", "2", "--batch-size", "8", "--save", str(save)]) == 0
    ckpt = str(save / "last.ckpt")
    assert run_cli(["eval", "--checkpoint", ckpt, "--data", str(data_dir)]) == 0
    hist_dir = tmp_path / "hists"
    diagnose = ["diagnose", "--checkpoint", ckpt, "--all", "--export-histograms", str(hist_dir)]
    assert run_cli(diagnose) == 0
    assert len(list(hist_dir.glob("*.csv"))) == 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_deterministic_runs_produce_identical_artifacts(data_dir, tmp_path, capsys):
    reports = []
    blobs = []
    for name in ("a", "b"):
        save = tmp_path / name
        out = tmp_path / f"{name}.json"
        code = run_cli(
            [
                "train",
                "--data", str(data_dir),
                "--dim", "8",
                "--steps", "20",
                "--batch-size", "16",
                "--neg-size", "8",
                "--seed", "5",
                "--deterministic",
                "--save", str(save),
            ]
        )
        assert code == 0
        code = run_cli(
            [
                "eval",
                "--checkpoint", str(save / "last.ckpt"),
                "--data", str(data_dir),
                "--split", "test",
                "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append((save / "last.ckpt").read_bytes())
        reports.append(out.read_text())
    assert blobs[0] == blobs[1]
    assert reports[0] == reports[1]


def test_artifacts_do_not_depend_on_the_blas_thread_count(data_dir, tmp_path):
    """Training's backward and the L2 screen make BLAS products, so a run at
    one BLAS thread and one at two must write the same checkpoint, log
    (apart from its elapsed_seconds column) and evaluation report."""
    package_root = str(Path(compound_kge.__file__).resolve().parents[1])
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
        save, report = tmp_path / threads, tmp_path / f"{threads}.json"
        train = ["train", "--data", str(data_dir), "--dim", "200", "--norm", "l2", "--steps", "20"]
        train += ["--batch-size", "16", "--neg-size", "8", "--valid-interval", "10"]
        train += ["--seed", "5", "--deterministic", "--save", str(save)]
        eval_ = ["eval", "--checkpoint", str(save / "last.ckpt"), "--data", str(data_dir)]
        for args in (train, eval_ + ["--out", str(report)]):
            subprocess.run(
                [sys.executable, "-m", "compound_kge.cli", *args],
                env=env, check=True, capture_output=True, timeout=300,
            )
        log = (save / "training_log.csv").read_text().splitlines()
        artifacts.append(
            (
                (save / "last.ckpt").read_bytes(),
                [line.rsplit(",", 1)[0] for line in log],
                report.read_text(),
            )
        )
    assert len(artifacts[0][1]) == 21
    assert artifacts[0] == artifacts[1]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs a second CPU",
)
def test_artifacts_do_not_depend_on_the_cpu_count(data_dir, tmp_path):
    """Training runs a corruption group's row parts on a worker thread when
    the process may use a second CPU, and inline on one, so a run pinned to
    one CPU and one on all of them must write the same checkpoint, log
    (apart from its elapsed_seconds column) and evaluation report.  At d =
    200 and 64 negatives a part holds 40 rows, so each 128-row group makes
    four parts."""
    package_root = str(Path(compound_kge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
    cpu = min(os.sched_getaffinity(0))
    artifacts = []
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        save, report = tmp_path / name, tmp_path / f"{name}.json"
        train = ["train", "--data", str(data_dir), "--dim", "200", "--steps", "20"]
        train += ["--batch-size", "256", "--neg-size", "64", "--valid-interval", "10"]
        train += ["--seed", "5", "--deterministic", "--save", str(save)]
        eval_ = ["eval", "--checkpoint", str(save / "last.ckpt"), "--data", str(data_dir)]
        for args in (train, eval_ + ["--out", str(report)]):
            subprocess.run(
                [sys.executable, "-m", "compound_kge.cli", *args],
                env=env, check=True, capture_output=True, timeout=300, preexec_fn=pin,
            )
        log = (save / "training_log.csv").read_text().splitlines()
        artifacts.append(
            (
                (save / "last.ckpt").read_bytes(),
                [line.rsplit(",", 1)[0] for line in log],
                report.read_text(),
            )
        )
    assert len(artifacts[0][1]) == 21
    assert artifacts[0] == artifacts[1]


def test_package_version_matches_pyproject():
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert compound_kge.__version__ == version
