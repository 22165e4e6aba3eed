"""Self-describing binary checkpoint container.

Layout::

    bytes 0..7    magic  b"CMPE0001"
    bytes 8..11   little-endian uint32 header length L
    bytes 12..11+L  UTF-8 JSON header
    remainder     raw little-endian float32 arrays, concatenated in the
                  order declared by the header's "arrays" manifest

The header alone is enough to reconstruct the model shape: spec (whose
chains say which operators act and train), entity/relation names,
training step and RNG state.  Model arrays are computed in float64 but
stored as float32; loading returns float64 arrays holding the float32
values, so a second save/load round trip is the exact identity.

Format 1 also stored a mask of operators frozen at their initial values.
Loading a format-1 file drops each frozen operator from its chain, which
is exact when its table holds the identity (translation 0, angle 0,
scale 1); a frozen operator holding anything else cannot be represented
and is refused.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import _PARAM_GROUPS, KGEModel, ParamTables, table_names
from .scoring import CompoundSpec, Norm, Variant
from .transforms import OperatorKind, chain_from_string, chain_to_string

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "read_header",
]

MAGIC = b"CMPE0001"
FORMAT_VERSION = 2

# format 1's header key of its mask of frozen operators, and each
# operator's mask key suffix and identity value
_V1_MASK = "trainable"
_V1_FROZEN = {
    OperatorKind.TRANSLATION: ("translation", 0.0),
    OperatorKind.ROTATION: ("rotation", 0.0),
    OperatorKind.SCALING: ("scale", 1.0),
}
_V1_MASK_KEYS = [f"{side}_{key}" for side in ("head", "tail") for key, _ in _V1_FROZEN.values()]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (test, description) of the values a header entry may hold
_ANY = (lambda v: True, "anything")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list), "a list")
_STR = (lambda v: isinstance(v, str), "a string")
_INT = (_is_int, "an integer")
_NAMES = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings")
_SHAPE = (
    lambda v: isinstance(v, list) and all(_is_int(x) and x >= 0 for x in v),
    "a list of nonnegative integers",
)

# header entries a model cannot be rebuilt without, and their value types
_REQUIRED_KEYS = {
    "spec": _OBJECT, "shared_rotation": _ANY, "n_entities": _INT,
    "n_relations": _INT, "entity_names": _NAMES, "relation_names": _NAMES, "arrays": _LIST,
}
_SPEC_FIELDS = {"variant": _STR, "head_chain": _STR, "tail_chain": _STR, "dim": _INT, "norm": _STR}
_ARRAY_FIELDS = {"name": _STR, "shape": _SHAPE}


@dataclass
class Checkpoint:
    """A model plus the bookkeeping needed to use it standalone."""

    model: KGEModel
    entity_names: list[str]
    relation_names: list[str]
    rng_state: dict | None = None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically: the bytes go to a sibling
    temporary file that then replaces ``path``, so a failed write leaves any
    earlier checkpoint there untouched and removes the temporary file."""
    model = ckpt.model
    spec = model.spec
    tables = model.tables()
    header = {
        "format_version": FORMAT_VERSION,
        "spec": {
            "variant": spec.variant.value,
            "head_chain": chain_to_string(spec.head_chain),
            "tail_chain": chain_to_string(spec.tail_chain),
            "dim": spec.dim,
            "norm": spec.norm.value,
        },
        "shared_rotation": model.shared_rotation,
        "preset": model.preset_name,
        "n_entities": model.n_entities,
        "n_relations": model.n_relations,
        "step": model.step,
        "entity_names": ckpt.entity_names,
        "relation_names": ckpt.relation_names,
        "rng_state": ckpt.rng_state,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in tables.items()],
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for array in tables.values():
                fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_header(path) -> dict:
    """Parse just the JSON header (magic + length prefix + JSON)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CheckpointError("truncated header length prefix")
        (length,) = struct.unpack("<I", raw_len)
        blob = fh.read(length)
        if len(blob) != length:
            raise CheckpointError("truncated JSON header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"malformed header JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header is a JSON {type(header).__name__}, not an object")
    return header


def _check_header(header: dict, version: int) -> None:
    """Raise CheckpointError naming the first required header key that is
    missing or holds a value of the wrong type, as a dotted path such as
    ``spec.variant``."""

    def need(obj, keys, prefix=""):
        for key, (ok, what) in keys.items():
            path = prefix + key
            if not isinstance(obj, dict) or key not in obj:
                raise CheckpointError(f"checkpoint header is missing {path!r}")
            if not ok(obj[key]):
                raise CheckpointError(
                    f"checkpoint header {path!r} must be {what}, got {obj[key]!r:.60}"
                )

    need(header, _REQUIRED_KEYS)
    need(header["spec"], _SPEC_FIELDS, "spec.")
    if version == 1:
        need(header, {_V1_MASK: _OBJECT})
        need(header[_V1_MASK], dict.fromkeys(_V1_MASK_KEYS, _ANY), f"{_V1_MASK}.")
    for i, entry in enumerate(header["arrays"]):
        need(entry, _ARRAY_FIELDS, f"arrays[{i}].")


def _spec_without_frozen(spec: CompoundSpec, mask: dict, model: KGEModel) -> CompoundSpec:
    """``spec`` with each operator a format-1 ``mask`` froze dropped from its
    side's chain, after checking that the operator's table is the identity."""
    chains, dropped = {}, []
    for side in ("head", "tail"):
        chain = getattr(spec, f"{side}_chain")
        for op, _, table in _PARAM_GROUPS:
            key, identity = _V1_FROZEN[op]
            if op in chain and not mask[f"{side}_{key}"]:
                name = f"{side}.{table}"
                if not np.all(model.table(name) == identity):
                    raise CheckpointError(
                        f"format-1 checkpoint freezes {name!r} at values other than "
                        f"the identity ({identity:g}), which format {FORMAT_VERSION} "
                        "cannot represent"
                    )
                chain = tuple(o for o in chain if o is not op)
                dropped.append(name)
        chains[side] = chain
    try:
        return replace(spec, head_chain=chains["head"], tail_chain=chains["tail"])
    except ValueError as exc:
        raise CheckpointError(
            f"format-1 checkpoint: dropping frozen {', '.join(map(repr, dropped))} "
            f"leaves no valid spec ({exc})"
        ) from None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint of format 1 or 2 (see the module docstring for
    how format 1 converts)."""
    header = read_header(path)
    version = header.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(
            f"unsupported format version {version!r} (supported: 1, {FORMAT_VERSION})"
        )
    _check_header(header, version)
    spec_h = header["spec"]
    spec = CompoundSpec(
        variant=Variant(spec_h["variant"]),
        head_chain=chain_from_string(spec_h["head_chain"]),
        tail_chain=chain_from_string(spec_h["tail_chain"]),
        dim=int(spec_h["dim"]),
        norm=Norm(spec_h["norm"]),
    )

    arrays = {}
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        file_size = fh.tell()
        fh.seek(8)
        (length,) = struct.unpack("<I", fh.read(4))
        fh.seek(8 + 4 + length)
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = fh.read(4 * count)
            if len(raw) != 4 * count:
                raise CheckpointError(
                    f"truncated checkpoint: array {name!r} needs {4 * count} bytes, "
                    f"got {len(raw)}"
                )
            arrays[name] = (
                np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
            )
        if fh.tell() != file_size:
            raise CheckpointError(
                f"{file_size - fh.tell()} unexpected trailing bytes"
            )

    shared = bool(header["shared_rotation"])
    missing = set(table_names(shared)) - set(arrays)
    if missing:
        raise CheckpointError(f"checkpoint is missing arrays: {sorted(missing)}")

    # under shared rotation the model aliases the tail angles to the head's
    head, tail = (
        ParamTables(*(arrays.get(f"{side}.{f.name}") for f in fields(ParamTables)))
        for side in ("head", "tail")
    )
    model = KGEModel(
        spec=spec,
        entities=arrays["entities"],
        head=head,
        tail=tail,
        shared_rotation=shared,
        preset_name=header.get("preset"),
        step=int(header.get("step", 0)),
    )
    if model.n_entities != header["n_entities"] or model.n_relations != header["n_relations"]:
        raise CheckpointError("array shapes disagree with header counts")
    for key, n in (("entity_names", model.n_entities), ("relation_names", model.n_relations)):
        if len(header[key]) != n:
            raise CheckpointError(f"checkpoint header has {len(header[key])} {key} for {n} rows")
    if version == 1:
        model.spec = _spec_without_frozen(spec, header[_V1_MASK], model)
    return Checkpoint(
        model=model,
        entity_names=list(header["entity_names"]),
        relation_names=list(header["relation_names"]),
        rng_state=header.get("rng_state"),
    )
