"""Fine-stage aggregation of selected teacher frame features.

Selected frames are scaled by their saliency weights, passed through a
lightweight attention layer (LayerNorm, then softmax attention applied
directly to the normalized rows), mean-pooled, and unit-normalized.
With a single frame the output is exactly the normalized LayerNormed row.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .autodiff import asum, mean, reshape, softmax, transpose, value
from .rng import CounterRng


def init_aggregator_params(rng: CounterRng, d: int) -> dict:
    return {
        "wq": nn.init_matrix(rng, d, d, d),
        "bq": nn.init_vector(rng, d, d),
        "wk": nn.init_matrix(rng, d, d, d),  # no key bias (softmax shift-invariant)
        "ln_g": np.ones(d),
        "ln_b": np.zeros(d),
    }


def weight_frames(clip_frames_selected, alpha):
    """Scale row k by alpha_k."""
    if value(clip_frames_selected).shape[:-1] != value(alpha).shape:
        raise ValueError("alpha length does not match frame count")
    return clip_frames_selected * reshape(alpha, value(alpha).shape + (1,))


def aggregate_video(weighted, params, return_weights=False):
    """Attention over LayerNormed rows, mean pool, unit-normalize."""
    d = value(weighted).shape[-1]
    h = nn.layer_norm(weighted, params["ln_g"], params["ln_b"])
    q = nn.affine(h, params["wq"], params["bq"])
    k = h @ params["wk"]
    attn = softmax((q @ transpose(k)) * (1.0 / np.sqrt(d)), axis=-1)
    out = attn @ h
    v = nn.unit_normalize(mean(out, axis=-2))
    if return_weights:
        return v, attn
    return v


def cosine_similarity(v, t):
    nv, nt = nn.vec_norm(v), nn.vec_norm(t)
    if (value(nv) == 0.0).any() or (value(nt) == 0.0).any():
        raise ValueError("cosine similarity of zero vector")
    return asum(v * t, axis=-1) / (nv * nt)
