"""Temporal frame encoder: projection, sinusoidal positions, and a
duration-dependent self-attention stack (3 layers for short videos,
5 for long ones, sharing the first 3 layers' parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import value
from .rng import CounterRng

SHORT_DEPTH = 3
LONG_DEPTH = 5
DURATION_THRESHOLD_S = 60.0


@dataclass
class FrameContextMatrix:
    rows: object            # [C x] N x D (ndarray or Tensor)
    layers_applied: int = 0


def init_encoder_params(rng: CounterRng, d_v: int, d: int) -> dict:
    return {
        "proj_w": nn.init_matrix(rng, d_v, d_v, d),
        "proj_b": nn.init_vector(rng, d_v, d),
        "layers": [nn.init_attention_layer(rng, d, 4 * d) for _ in range(LONG_DEPTH)],
    }


def project_frames(raw, params):
    w = value(params["proj_w"])
    if value(raw).shape[-1] != w.shape[0]:
        raise ValueError("raw frame dim %d does not match projection input %d"
                         % (value(raw).shape[-1], w.shape[0]))
    return nn.affine(raw, params["proj_w"], params["proj_b"])


def positional_encoding(n: int, d: int) -> np.ndarray:
    """PE[n, 2i] = sin(n / 10000^(2i/D)), PE[n, 2i+1] = cos(same)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i2 = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, i2 / d)
    pe = np.empty((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    return pe


def add_positional(x):
    n, d = value(x).shape[-2:]
    return x + positional_encoding(n, d)


def depth_for_duration(duration_s: float) -> int:
    if duration_s < 0:
        raise ValueError("duration must be nonnegative")
    return SHORT_DEPTH if duration_s <= DURATION_THRESHOLD_S else LONG_DEPTH


def encode_temporal(x, duration_s: float, params) -> FrameContextMatrix:
    depth = depth_for_duration(duration_s)
    for layer in params["layers"][:depth]:
        x = nn.encoder_block(x, layer)
    return FrameContextMatrix(rows=x, layers_applied=depth)


def encode_video(raw, duration_s: float, params) -> FrameContextMatrix:
    """Full path: projection + positions + temporal stack.  raw is [C x] N x D_v:
    C videos of one frame count, each of the depth `duration_s` implies."""
    x = add_positional(project_frames(raw, params))
    return encode_temporal(x, duration_s, params)
