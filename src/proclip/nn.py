"""Shared neural building blocks.

All functions accept either plain ndarrays (inference) or autodiff Tensors
(training); see `autodiff` for the dispatch rules.  Parameters are plain
dicts of arrays so they can be wrapped leaf-by-leaf for gradient work.
"""

from __future__ import annotations

import numpy as np

from .autodiff import asum, mean, relu, reshape, softmax, sqrt, transpose, value
from .rng import CounterRng

LN_EPS = 1e-5


def _plain(*arrays) -> bool:
    """True when every operand is a float64 ndarray (the inference path), so
    an in-place update of a fresh result rounds as the generic expression."""
    return all(type(a) is np.ndarray and a.dtype == np.float64 for a in arrays)


def affine(x, w, b):
    y = x @ w
    if _plain(y, b):
        y += b
        return y
    return y + b


def layer_norm(x, gain, bias, eps=LN_EPS):
    m = mean(x, axis=-1, keepdims=True)
    if _plain(x, gain, bias):
        centred = x - m
        v = np.mean(np.square(centred), axis=-1, keepdims=True)
        centred /= np.sqrt(v + eps)
        centred *= gain
        centred += bias
        return centred
    v = mean((x - m) ** 2, axis=-1, keepdims=True)
    return (x - m) / sqrt(v + eps) * gain + bias


def attention(x, p, heads=1, return_weights=False):
    """Scaled dot-product self-attention, all heads in one batched product.

    x: [C x] N x D.  Returns the same shape (and, on request, the weights:
    [C x] N x N for one head, [C x] heads x N x N for more); leading axes
    are independent batch items.  One head skips the split and merge, which
    are the identity there."""
    shape = value(x).shape
    if shape[-1] % heads != 0:
        raise ValueError("head count %d does not divide width %d" % (heads, shape[-1]))
    hd = shape[-1] // heads
    q = affine(x, p["wq"], p["bq"])
    k = x @ p["wk"]  # no key bias: softmax rows are shift-invariant
    v = affine(x, p["wv"], p["bv"])
    if heads > 1:  # [C x] N x D -> [C x] heads x N x hd
        q, k, v = (transpose(reshape(t, shape[:-1] + (heads, hd)), -2, -3) for t in (q, k, v))
    a = softmax((q @ transpose(k)) * (1.0 / np.sqrt(hd)), axis=-1)
    out = a @ v
    if heads > 1:
        out = reshape(transpose(out, -2, -3), shape)
    out = affine(out, p["wo"], p["bo"])
    return (out, a) if return_weights else out


def _block(x, p, heads):
    """Pre-norm residual block: x + Attn(LN(x)), then + FFN(LN(.))."""
    y = x + attention(layer_norm(x, p["ln1_g"], p["ln1_b"]), p, heads)
    return y + mlp2(layer_norm(y, p["ln2_g"], p["ln2_b"]),
                    p["ff_w1"], p["ff_b1"], p["ff_w2"], p["ff_b2"])


def encoder_block(x, p):
    """The temporal encoder's block: one attention head."""
    return _block(x, p, 1)


def multi_head_block(x, p, heads):
    """The distill encoder's block: `heads` attention heads."""
    return _block(x, p, heads)


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
