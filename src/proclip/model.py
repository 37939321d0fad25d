"""Model parameter bundle, initialization, and checkpoint files."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import aggregator, encoder, prompt, pruner, sampler
from .corpus import CorpusFormatError
from .rng import CounterRng

CHECKPOINT_MAGIC = b"PCLW"
CHECKPOINT_VERSION = 1

GROUPS = ("encoder", "gate", "scorer", "aggregator", "distill", "logit_scale")


@dataclass
class ModelParams:
    encoder: dict
    gate: dict
    scorer: dict
    aggregator: dict
    distill: dict
    logit_scale: dict

    def group(self, name: str) -> dict:
        return getattr(self, name)

    @property
    def dims(self) -> tuple[int, int]:
        d_v, d = self.encoder["proj_w"].shape
        return d_v, d


def init_model_params(seed: int, d_v: int, d: int, scorer_hidden: int | None = None) -> ModelParams:
    rng = CounterRng(seed)
    return ModelParams(
        encoder=encoder.init_encoder_params(rng, d_v, d),
        gate=prompt.init_gate_params(rng, d),
        scorer=sampler.init_scorer_params(rng, d, scorer_hidden or d),
        aggregator=aggregator.init_aggregator_params(rng, d),
        distill=pruner.init_distill_params(rng, d),
        logit_scale={"log_scale": np.zeros(())},
    )


# -- flatten / rebuild ---------------------------------------------------

def _flatten_into(prefix: str, node, out: dict) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten_into(f"{prefix}.{key}", node[key], out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _flatten_into(f"{prefix}.{i}", item, out)
    else:
        out[prefix] = np.asarray(node)


def flatten_params(model: ModelParams) -> dict:
    out: dict = {}
    for f in fields(model):
        _flatten_into(f.name, getattr(model, f.name), out)
    return out


def _insert(tree: dict, parts: list[str], arr: np.ndarray) -> None:
    head = parts[0]
    if len(parts) == 1:
        tree[head] = arr
        return
    nxt = parts[1]
    if nxt.isdigit():
        lst = tree.setdefault(head, [])
        idx = int(nxt)
        while len(lst) <= idx:
            lst.append({})
        if len(parts) == 2:
            lst[idx] = arr
        else:
            _insert(lst[idx], parts[2:], arr)
    else:
        _insert(tree.setdefault(head, {}), parts[1:], arr)


def unflatten_params(flat: dict) -> ModelParams:
    groups: dict = {g: {} for g in GROUPS}
    for name, arr in flat.items():
        group, _, rest = name.partition(".")
        if group not in groups or not rest:
            raise CorpusFormatError("unknown-parameter", f"no parameter group for {name!r}")
        _insert(groups[group], rest.split("."), arr)
    return ModelParams(**groups)


# -- checkpoint file -----------------------------------------------------

def serialize_checkpoint(model: ModelParams) -> bytes:
    flat = flatten_params(model)
    parts = [CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(flat))]
    for name in sorted(flat):
        arr = np.ascontiguousarray(flat[name], dtype="<f4")
        enc = name.encode("utf-8")
        parts.append(struct.pack("<H", len(enc)) + enc)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack("<%dI" % arr.ndim, *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def save_checkpoint(model: ModelParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_checkpoint(model))


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise CorpusFormatError("truncated-payload",
                                    f"needed {n} bytes at offset {pos}")
        out = buf[pos:pos + n]
        pos += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise CorpusFormatError("bad-magic", "not a checkpoint file")
    version, count = struct.unpack("<HI", take(6))
    if version != CHECKPOINT_VERSION:
        raise CorpusFormatError("version-mismatch", f"version {version}")
    flat = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack("<%dI" % ndim, take(4 * ndim)) if ndim else ()
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(4 * size), dtype="<f4", count=size)
        flat[name] = arr.reshape(shape).astype(np.float64)
    if pos != len(buf):
        raise CorpusFormatError("dimension-mismatch", "trailing bytes in checkpoint")
    return unflatten_params(flat)


def model_hash(model: ModelParams) -> str:
    return hashlib.sha256(serialize_checkpoint(model)).hexdigest()
