"""Shared neural building blocks.

All functions accept either plain ndarrays (inference) or autodiff Tensors
(training); see `autodiff` for the dispatch rules.  Parameters are plain
dicts of arrays so they can be wrapped leaf-by-leaf for gradient work.
"""

from __future__ import annotations

import numpy as np

from .autodiff import asum, concat, mean, relu, softmax, sqrt, transpose, value
from .rng import CounterRng

LN_EPS = 1e-5


def affine(x, w, b):
    return x @ w + b


def layer_norm(x, gain, bias, eps=LN_EPS):
    m = mean(x, axis=-1, keepdims=True)
    v = mean((x - m) ** 2, axis=-1, keepdims=True)
    return (x - m) / sqrt(v + eps) * gain + bias


def single_head_attention(x, p, return_weights=False):
    """Scaled dot-product self-attention with per-head projections.

    x: N x D.  Returns N x D (and the N x N weight matrix on request).
    """
    d = value(x).shape[1]
    q = affine(x, p["wq"], p["bq"])
    k = x @ p["wk"]  # no key bias: softmax rows are shift-invariant
    v = affine(x, p["wv"], p["bv"])
    a = softmax((q @ transpose(k)) * (1.0 / np.sqrt(d)), axis=-1)
    out = affine(a @ v, p["wo"], p["bo"])
    if return_weights:
        return out, a
    return out


def feed_forward(x, p):
    return affine(relu(affine(x, p["ff_w1"], p["ff_b1"])), p["ff_w2"], p["ff_b2"])


def encoder_block(x, p, return_weights=False):
    """Pre-norm residual block: x + Attn(LN(x)), then + FFN(LN(.))."""
    h = layer_norm(x, p["ln1_g"], p["ln1_b"])
    if return_weights:
        att, weights = single_head_attention(h, p, return_weights=True)
    else:
        att = single_head_attention(h, p)
    y = x + att
    z = y + feed_forward(layer_norm(y, p["ln2_g"], p["ln2_b"]), p)
    if return_weights:
        return z, weights
    return z


def multi_head_attention(x, p, heads, return_weights=False):
    """Multi-head variant used by the distillation encoder."""
    d = value(x).shape[1]
    if d % heads != 0:
        raise ValueError("head count %d does not divide width %d" % (heads, d))
    hd = d // heads
    q = affine(x, p["wq"], p["bq"])
    k = x @ p["wk"]
    v = affine(x, p["wv"], p["bv"])
    outs, weights = [], []
    for h in range(heads):
        sl = (slice(None), slice(h * hd, (h + 1) * hd))
        a = softmax((q[sl] @ transpose(k[sl])) * (1.0 / np.sqrt(hd)), axis=-1)
        outs.append(a @ v[sl])
        weights.append(a)
    out = affine(concat(outs, axis=1), p["wo"], p["bo"])
    if return_weights:
        return out, weights
    return out


def multi_head_block(x, p, heads, return_weights=False):
    """Pre-norm residual block with multi-head attention."""
    h = layer_norm(x, p["ln1_g"], p["ln1_b"])
    if return_weights:
        att, weights = multi_head_attention(h, p, heads, return_weights=True)
    else:
        att = multi_head_attention(h, p, heads)
    y = x + att
    z = y + feed_forward(layer_norm(y, p["ln2_g"], p["ln2_b"]), p)
    if return_weights:
        return z, weights
    return z


def mlp2(x, w1, b1, w2, b2):
    """Two-layer perceptron with ReLU hidden activation."""
    return affine(relu(affine(x, w1, b1)), w2, b2)


def vec_norm(x, keepdims=False):
    return sqrt(asum(x * x, axis=-1, keepdims=keepdims))


def unit_normalize(x):
    return x / vec_norm(x, keepdims=True)


# -- initialization ------------------------------------------------------

def init_matrix(rng: CounterRng, fan_in: int, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform_range(rows * cols, -bound, bound).reshape(rows, cols)


def init_vector(rng: CounterRng, fan_in: int, n: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform_range(n, -bound, bound)


def init_attention_layer(rng: CounterRng, d: int, ff_hidden: int) -> dict:
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = init_matrix(rng, d, d, d)
        if name != "wk":
            p["b" + name[1]] = init_vector(rng, d, d)
    p["ff_w1"] = init_matrix(rng, d, d, ff_hidden)
    p["ff_b1"] = init_vector(rng, d, ff_hidden)
    p["ff_w2"] = init_matrix(rng, ff_hidden, ff_hidden, d)
    p["ff_b2"] = init_vector(rng, ff_hidden, d)
    p["ln1_g"] = np.ones(d)
    p["ln1_b"] = np.zeros(d)
    p["ln2_g"] = np.ones(d)
    p["ln2_b"] = np.zeros(d)
    return p
