"""The inference (numpy) paths of `affine` and `layer_norm` against the
generic expressions they shortcut."""

import numpy as np
import pytest

from proclip import nn
from proclip.autodiff import Tensor
from proclip.rng import CounterRng


def _arrays(shape, d_out, seed=31):
    rng = CounterRng(seed)
    x = rng.normal_matrix(int(np.prod(shape[:-1])), shape[-1]).reshape(shape)
    return x, rng.normal_matrix(shape[-1], d_out), rng.normal_matrix(1, d_out)[0]


@pytest.mark.parametrize("shape", [(5,), (4, 5), (3, 4, 5)])
def test_affine_is_bitwise_the_generic_expression(shape):
    x, w, b = _arrays(shape, 7)
    before = [a.copy() for a in (x, w, b)]
    got = nn.affine(x, w, b)
    assert got.dtype == np.float64 and got.tobytes() == (x @ w + b).tobytes()
    assert all(a.tobytes() == c.tobytes() for a, c in zip((x, w, b), before))


@pytest.mark.parametrize("shape", [(5,), (4, 5), (3, 4, 5)])
def test_layer_norm_is_bitwise_the_generic_expression(shape):
    x, _, _ = _arrays(shape, 1, seed=32)
    rng = CounterRng(33)
    gain, bias = rng.normal_matrix(1, shape[-1])[0], rng.normal_matrix(1, shape[-1])[0]
    before = [a.copy() for a in (x, gain, bias)]
    m = x.mean(axis=-1, keepdims=True)
    v = ((x - m) ** 2).mean(axis=-1, keepdims=True)
    expected = (x - m) / np.sqrt(v + nn.LN_EPS) * gain + bias
    got = nn.layer_norm(x, gain, bias)
    assert got.tobytes() == expected.tobytes()
    assert all(a.tobytes() == c.tobytes() for a, c in zip((x, gain, bias), before))


def test_mixed_precision_keeps_the_generic_promotion():
    x, w, b = _arrays((4, 5), 3)
    x32, w32 = x.astype(np.float32), w.astype(np.float32)
    got = nn.affine(x32, w32, b)
    assert got.dtype == np.float64 and got.tobytes() == (x32 @ w32 + b).tobytes()
    g32, b32 = w32[:, 0], w32[:, 1]
    got = nn.layer_norm(x32, g32, b32)
    m = x32.mean(axis=-1, keepdims=True)
    v = ((x32 - m) ** 2).mean(axis=-1, keepdims=True)
    assert got.tobytes() == ((x32 - m) / np.sqrt(v + nn.LN_EPS) * g32 + b32).tobytes()


@pytest.mark.parametrize("tensor_arg", [0, 1, 2])
def test_a_tensor_operand_takes_the_autodiff_path(tensor_arg):
    args = list(_arrays((4, 5), 3))
    args[tensor_arg] = Tensor(args[tensor_arg])
    out = nn.affine(*args)
    assert isinstance(out, Tensor)
    out.backward(np.ones(out.shape))
    assert args[tensor_arg].grad is not None
    x, _, _ = _arrays((4, 5), 1)
    ln_args = [x, np.ones(5), np.zeros(5)]
    ln_args[tensor_arg] = Tensor(ln_args[tensor_arg])
    assert isinstance(nn.layer_norm(*ln_args), Tensor)
