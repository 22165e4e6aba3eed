import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from compound_kge import checkpoint as ckpt_mod
from compound_kge.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from compound_kge.dataset import TripleStore
from compound_kge.errors import CheckpointError
from compound_kge.evaluation import evaluate
from compound_kge.model import KGEModel, init_model, model_from_preset, table_names
from compound_kge.scoring import CompoundSpec, Variant, compound_spec, preset_pairre, preset_transe
from compound_kge.transforms import OperatorKind

# Format-1 checkpoints (3 entities e0-e2, 2 relations r0-r1, dim 4, L1)
# written by save_checkpoint of release 0.1.0 from fresh models:
# model_from_preset(preset_transe(4)) and (preset_rotate(4)) with
# default_rng seeds 1 and 2, and init_model of a FULL SRT/SRT spec with
# shared rotation and seed 3.  The presets' headers hold a HEAD TRS spec
# whose mask freezes every operator but the preset's own at identity.
V1_DATA = Path(__file__).parent / "data"


def sample_checkpoint(seed=0, shared=True):
    spec = compound_spec("full", "SRT", "SRT", dim=8)
    model = init_model(spec, 6, 2, np.random.default_rng(seed), shared_rotation=shared)
    rng = np.random.default_rng(123)
    return Checkpoint(
        model=model,
        entity_names=[f"e{i}" for i in range(6)],
        relation_names=["r0", "r1"],
        rng_state=rng.bit_generator.state,
    )


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header, keeping its arrays."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length].decode("utf-8"))
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[12 + length :])


def checkpoint_with_key(tmp_path, key):
    """A checkpoint file whose header has ``key``: the format-1 mask only
    format-1 headers hold, any other key a sample checkpoint's."""
    path = tmp_path / "m.ckpt"
    if key.startswith("trainable"):
        shutil.copy(V1_DATA / "v1_srt_shared.ckpt", path)
    else:
        save_checkpoint(path, sample_checkpoint())
    return path


def test_round_trip_is_identity_on_storage_lattice(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt = sample_checkpoint()
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)

    # a second round trip is bit-exact: values already sit on the
    # float32 storage lattice
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()
    again = load_checkpoint(path2)
    np.testing.assert_array_equal(loaded.model.entities, again.model.entities)
    np.testing.assert_array_equal(
        loaded.model.head.translations, again.model.head.translations
    )
    np.testing.assert_array_equal(loaded.model.tail.scales, again.model.tail.scales)

    # storage rounds float64 to float32 resolution
    np.testing.assert_allclose(
        loaded.model.entities, ckpt.model.entities, atol=1e-7
    )
    assert loaded.model.spec == ckpt.model.spec
    assert loaded.entity_names == ckpt.entity_names
    assert loaded.relation_names == ckpt.relation_names
    assert loaded.rng_state == ckpt.rng_state


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint(seed=0))
    before = path.read_bytes()

    class FailingFile:
        """A binary file whose third write (the header JSON) raises."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(ckpt_mod, "open", lambda *a: FailingFile(open(*a)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, sample_checkpoint(seed=1))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    save_checkpoint(path, sample_checkpoint(seed=1))
    assert path.read_bytes() != before and load_checkpoint(path).model.step == 0


def test_shared_rotation_aliasing_restored(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint(shared=True))
    loaded = load_checkpoint(path)
    assert loaded.model.shared_rotation
    assert loaded.model.head.angles is loaded.model.tail.angles


def test_unshared_rotation_saves_both_angle_tables(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt = sample_checkpoint(shared=False)
    ckpt.model.tail.angles[:] = 0.25
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert not loaded.model.shared_rotation
    assert loaded.model.head.angles is not loaded.model.tail.angles
    np.testing.assert_allclose(loaded.model.tail.angles, 0.25)


@pytest.mark.parametrize("shared", [True, False])
def test_model_tables_are_the_header_arrays_in_order(tmp_path, shared):
    path = tmp_path / "m.ckpt"
    ckpt = sample_checkpoint(shared=shared)
    save_checkpoint(path, ckpt)
    tables = ckpt.model.tables()
    assert list(tables) == table_names(shared)
    assert [(a["name"], a["shape"]) for a in read_header(path)["arrays"]] == [
        (name, list(array.shape)) for name, array in tables.items()
    ]


def test_shared_rotation_tables_hold_one_angle_table():
    model = sample_checkpoint(shared=True).model
    tables = model.tables()
    assert "tail.angles" not in tables
    assert tables["head.angles"] is model.tail.angles


def test_relation_rows_are_views_into_the_tables():
    model = sample_checkpoint(shared=False).model
    params = model.tail[1]
    params.translation[:] = 7.0
    params.angles[0] = 0.5
    params.scale[-1] = -2.0
    np.testing.assert_array_equal(model.tail.translations[1], 7.0)
    assert model.tail.angles[1, 0] == 0.5
    assert model.tail.scales[1, -1] == -2.0
    assert not np.any(model.tail.translations[0] == 7.0)


def test_preset_short_chain_persisted(tmp_path):
    model = model_from_preset(preset_transe(4), 3, 1, np.random.default_rng(1))
    path = tmp_path / "transe.ckpt"
    save_checkpoint(path, Checkpoint(model, ["a", "b", "c"], ["r"]))
    loaded = load_checkpoint(path)
    assert loaded.model.preset_name == "transe"
    assert loaded.model.spec.head_chain == (OperatorKind.TRANSLATION,)
    assert "trainable" not in read_header(path)


def test_header_extractable_by_skipping_magic_and_prefix(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length].decode("utf-8"))
    assert header["format_version"] == FORMAT_VERSION == 2
    assert header["spec"]["head_chain"] == "SRT"
    assert [a["name"] for a in header["arrays"]][0] == "entities"
    assert read_header(path) == header


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda header: header.update(format_version=99))
    with pytest.raises(CheckpointError, match="format version"):
        load_checkpoint(path)


def test_truncation_names_offending_array(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 40])
    with pytest.raises(CheckpointError, match="truncated checkpoint: array"):
        load_checkpoint(path)


def test_first_array_truncation_names_entities(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    path.write_bytes(raw[: 12 + length + 8])  # 2 floats of the entity table
    with pytest.raises(CheckpointError, match="'entities'"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 16)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key",
    [
        "spec",
        "trainable",
        "arrays",
        "n_entities",
        "n_relations",
        "shared_rotation",
        "entity_names",
        "relation_names",
    ],
)
def test_incomplete_header_names_missing_key(tmp_path, key):
    path = checkpoint_with_key(tmp_path, key)
    rewrite_header(path, lambda header: header.pop(key))
    with pytest.raises(CheckpointError, match=f"missing '{key}'"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "path",
    [
        "spec.variant",
        "spec.head_chain",
        "spec.tail_chain",
        "spec.dim",
        "spec.norm",
        "trainable.head_scale",
        "trainable.tail_rotation",
        "arrays[0].name",
        "arrays[0].shape",
        "arrays[3].shape",
    ],
)
def test_incomplete_nested_header_names_dotted_key(tmp_path, path):
    ckpt_path = checkpoint_with_key(tmp_path, path)
    parent, key = path.rsplit(".", 1)
    head, _, index = parent.partition("[")

    def drop(header):
        owner = header[head]
        if index:
            owner = owner[int(index.rstrip("]"))]
        del owner[key]

    rewrite_header(ckpt_path, drop)
    with pytest.raises(CheckpointError, match=re.escape(f"missing '{path}'")):
        load_checkpoint(ckpt_path)


@pytest.mark.parametrize("key, n", [("entity_names", 6), ("relation_names", 2)])
def test_name_list_longer_than_its_table_is_refused(tmp_path, key, n):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda header: header[key].append("extra"))
    with pytest.raises(CheckpointError, match=f"header has {n + 1} {key} for {n} rows"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "path, value",
    [
        ("entity_names", 5),
        ("entity_names", ["e0", 1, "e2", "e3", "e4", "e5"]),
        ("relation_names", "r0"),
        ("n_entities", "6"),
        ("n_relations", 2.0),
        ("n_relations", True),
        ("arrays", {"name": "entities"}),
        ("spec.dim", "8"),
        ("spec.variant", 5),
        ("spec.head_chain", ["S", "R", "T"]),
        ("arrays[0].name", 0),
        ("arrays[0].shape", "6x8"),
        ("arrays[2].shape", [2, -4]),
        ("arrays[3].shape", [2.0, 4]),
    ],
)
def test_header_value_of_wrong_type_names_dotted_key(tmp_path, path, value):
    ckpt_path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt_path, sample_checkpoint())
    parent, _, key = path.rpartition(".")
    head, _, index = parent.partition("[")

    def put(header):
        owner = header[head] if head else header
        if index:
            owner = owner[int(index.rstrip("]"))]
        owner[key] = value

    rewrite_header(ckpt_path, put)
    with pytest.raises(CheckpointError, match=re.escape(f"header '{path}' must be ")):
        load_checkpoint(ckpt_path)


# ---------------------------------------------------------------------------
# format 1
# ---------------------------------------------------------------------------

def v1_store():
    """Triples over the format-1 files' 3 entities and 2 relations."""
    triples = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 0], [0, 1, 2], [1, 0, 2], [2, 1, 0]])
    return TripleStore(
        3, 2, triples[:2], triples[2:3], triples[3:], ["e0", "e1", "e2"], ["r0", "r1"]
    )


def report(model):
    return evaluate(model, v1_store(), "test", None).as_dict()


def assert_format_2_round_trip_keeps(loaded, tmp_path):
    """Saved and loaded again, ``loaded`` keeps its spec, tables and report."""
    model = loaded.model
    save_checkpoint(tmp_path / "v2.ckpt", loaded)
    again = load_checkpoint(tmp_path / "v2.ckpt").model
    assert again.spec == model.spec
    for table, values in model.tables().items():
        np.testing.assert_array_equal(again.table(table), values)
    assert report(again) == report(model)


@pytest.mark.parametrize("name, op", [("transe", "T"), ("rotate", "R")])
def test_v1_preset_loads_as_its_short_chain(tmp_path, name, op):
    path = V1_DATA / f"v1_{name}.ckpt"
    assert read_header(path)["format_version"] == 1
    loaded = load_checkpoint(path)
    model = loaded.model
    assert model.spec == CompoundSpec(Variant.HEAD, (OperatorKind(op),), (), 4)
    assert model.preset_name == name
    # the file's own HEAD TRS spec over the same tables ranks the same
    as_written = KGEModel(
        compound_spec("head", "TRS", "", dim=4), model.entities, model.head, model.tail
    )
    assert report(model) == report(as_written)
    # and so do the tables saved and loaded again under the current format
    assert_format_2_round_trip_keeps(loaded, tmp_path)


def test_v1_full_srt_loads_unchanged(tmp_path):
    loaded = load_checkpoint(V1_DATA / "v1_srt_shared.ckpt")
    model = loaded.model
    assert model.spec == compound_spec("full", "SRT", "SRT", dim=4)
    assert model.shared_rotation and model.head.angles is model.tail.angles
    assert_format_2_round_trip_keeps(loaded, tmp_path)


@pytest.mark.parametrize(
    "name, key, table",
    [
        ("transe", "head_translation", "head.translations"),
        ("rotate", "head_rotation", "head.angles"),
    ],
)
def test_v1_frozen_non_identity_group_is_refused(tmp_path, name, key, table):
    path = tmp_path / "m.ckpt"
    shutil.copy(V1_DATA / f"v1_{name}.ckpt", path)
    rewrite_header(path, lambda header: header["trainable"].update({key: False}))
    with pytest.raises(CheckpointError, match=re.escape(f"freezes {table!r} at values other")):
        load_checkpoint(path)


def test_v1_frozen_identity_group_that_empties_a_chain_is_refused(tmp_path):
    # PairRE's scales start at the identity; freezing the tail's leaves an
    # empty tail chain, which a FULL spec cannot have
    path = tmp_path / "m.ckpt"
    model = model_from_preset(preset_pairre(4), 3, 2, np.random.default_rng(0))
    save_checkpoint(path, Checkpoint(model, ["e0", "e1", "e2"], ["r0", "r1"]))
    mask = {
        f"{side}_{group}": side == "head"
        for side in ("head", "tail")
        for group in ("translation", "rotation", "scale")
    }
    rewrite_header(path, lambda header: header.update(format_version=1, trainable=mask))
    message = "dropping frozen 'tail.scales' leaves no valid spec"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(path)
    # unfrozen, the same file loads with its spec as written
    mask["tail_scale"] = True
    rewrite_header(path, lambda header: header.update(trainable=mask))
    assert load_checkpoint(path).model.spec == model.spec


def test_rng_state_round_trip_enables_identical_draws(tmp_path):
    rng = np.random.default_rng(7)
    rng.integers(0, 100, size=10)  # advance
    ckpt = sample_checkpoint()
    ckpt.rng_state = rng.bit_generator.state
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    restored = np.random.default_rng()
    restored.bit_generator.state = loaded.rng_state
    np.testing.assert_array_equal(
        rng.integers(0, 1000, size=20), restored.integers(0, 1000, size=20)
    )
