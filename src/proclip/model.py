"""Model parameter bundle, initialization, and checkpoint files."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import aggregator, encoder, prompt, pruner, sampler
from .corpus import CorpusFormatError, Reader, pack_f32, pack_str
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
    return _init_params(CounterRng(seed), d_v, d, scorer_hidden or d)


def _init_params(rng, d_v: int, d: int, scorer_hidden: int) -> ModelParams:
    return ModelParams(
        encoder=encoder.init_encoder_params(rng, d_v, d),
        gate=prompt.init_gate_params(rng, d),
        scorer=sampler.init_scorer_params(rng, d, scorer_hidden),
        aggregator=aggregator.init_aggregator_params(rng, d),
        distill=pruner.init_distill_params(rng, d),
        logit_scale={"log_scale": np.zeros(())},
    )


class _ShapeOnlyRng:
    """Stands in for CounterRng where only the parameter shapes matter.

    Its draws are zero-stride views, so the dims of a forged file allocate nothing."""

    def uniform_range(self, n: int, lo: float, hi: float) -> np.ndarray:
        return np.broadcast_to(0.0, (n,))


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


def _stored_shape(arr) -> tuple:
    """Shape as a checkpoint stores it: a scalar is written as one element."""
    return np.shape(arr) or (1,)


def _expected_shapes(flat: dict) -> dict:
    """Name -> stored shape of every parameter of the model whose dims `flat` holds."""
    for name in ("encoder.proj_w", "scorer.f_w1"):
        if name not in flat:
            raise CorpusFormatError("unknown-parameter", f"missing parameter {name!r}")
        if np.ndim(flat[name]) != 2:
            raise CorpusFormatError("dimension-mismatch", f"{name} is not a matrix")
    d_v, d = np.shape(flat["encoder.proj_w"])
    hidden = np.shape(flat["scorer.f_w1"])[1]
    if min(d_v, d, hidden) < 1 or d % pruner.DISTILL_HEADS:
        raise CorpusFormatError("dimension-mismatch",
                                f"unusable dims D_v={d_v} D={d} hidden={hidden}")
    template = _init_params(_ShapeOnlyRng(), d_v, d, hidden)
    return {name: _stored_shape(arr) for name, arr in flatten_params(template).items()}


def unflatten_params(flat: dict) -> ModelParams:
    expected = _expected_shapes(flat)
    if flat.keys() != expected.keys():
        names = sorted(flat.keys() ^ expected.keys())
        raise CorpusFormatError("unknown-parameter",
                                f"missing or unexpected parameters {names[:4]}")
    for name, shape in expected.items():
        if _stored_shape(flat[name]) != shape:
            raise CorpusFormatError("dimension-mismatch",
                                    f"{name} has shape {np.shape(flat[name])}, expected {shape}")
    groups: dict = {g: {} for g in GROUPS}
    for name, arr in flat.items():
        group, _, rest = name.partition(".")
        _insert(groups[group], rest.split("."), arr)
    return ModelParams(**groups)


# -- checkpoint file -----------------------------------------------------

def serialize_checkpoint(model: ModelParams) -> bytes:
    flat = flatten_params(model)
    parts = [CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(flat))]
    for name in sorted(flat):
        arr = np.ascontiguousarray(flat[name], dtype="<f4")
        parts += [pack_str(name), struct.pack("<B%dI" % arr.ndim, arr.ndim, *arr.shape),
                  pack_f32(arr)]
    return b"".join(parts)


def save_checkpoint(model: ModelParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_checkpoint(model))


def load_checkpoint(path: str) -> ModelParams:
    r = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    flat = {}
    for _ in range(r.unpack("<I")[0]):
        name = r.read_str()
        (ndim,) = r.unpack("<B")
        if ndim > 2:  # every parameter is a vector or a matrix
            raise CorpusFormatError("dimension-mismatch", f"{name} has {ndim} axes")
        flat[name] = r.read_f32(*r.unpack("<%dI" % ndim)).astype(np.float64)
    r.finish()
    return unflatten_params(flat)


def model_hash(model: ModelParams) -> str:
    return hashlib.sha256(serialize_checkpoint(model)).hexdigest()
