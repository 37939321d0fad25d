import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proclip import autodiff as ad
from proclip import nn
from proclip.autodiff import Tensor
from proclip.rng import CounterRng


def finite_difference(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def check_grad(build, x, tol=1e-6):
    """build(arg) -> scalar output, arg either ndarray or Tensor."""
    t = Tensor(x)
    out = build(t)
    out.backward()
    fd = finite_difference(lambda a: float(ad.value(build(a))), x)
    assert np.allclose(t.grad, fd, atol=tol), (t.grad, fd)
    # plain-array path agrees with the Tensor forward
    assert np.allclose(float(ad.value(build(np.asarray(x)))), float(out.data))


RNG = CounterRng(99)


def test_add_mul_sub_div_grads():
    x = RNG.normal_matrix(3, 4) + 2.0  # keep away from division trouble
    c = RNG.normal_matrix(3, 4)
    check_grad(lambda a: ad.asum((a * c + 1.5) / (a + 5.0) - a * 0.3), x)


def test_pow_and_rsub_rdiv_grads():
    x = np.abs(RNG.normal_matrix(2, 3)) + 0.5
    check_grad(lambda a: ad.asum((2.0 - a) ** 3 + 1.0 / a), x, tol=1e-5)


def test_matmul_grads_all_shape_cases():
    m = RNG.normal_matrix(3, 4)
    lhs = RNG.normal_matrix(2, 3)
    v = RNG.normal(4)
    u = RNG.normal(3)
    check_grad(lambda a: ad.asum((a @ m) ** 2), lhs, tol=1e-5)  # (2,3)@(3,4)
    check_grad(lambda a: ad.asum(a @ v), m)                     # (m,n)@(n,)
    check_grad(lambda a: ad.asum(a @ m), np.copy(u))            # (n,)@(n,p)
    check_grad(lambda a: a @ np.copy(v), np.copy(v))            # (n,)@(n,)
    check_grad(lambda a: ad.asum(u @ a), m)                     # right operand
    check_grad(lambda a: ad.asum(m @ a), np.copy(v))


def test_batched_matmul_grads():
    x = RNG.normal(24).reshape(2, 3, 4)   # two stacked 3 x 4 operands
    y = RNG.normal(40).reshape(2, 4, 5)
    w = RNG.normal_matrix(4, 5)
    m = RNG.normal_matrix(3, 4)
    v = RNG.normal(4)
    check_grad(lambda a: ad.asum((a @ w) ** 2), x, tol=1e-5)   # 3-D @ 2-D
    check_grad(lambda a: ad.asum((x @ a) ** 2), w, tol=1e-5)   # shared right operand
    check_grad(lambda a: ad.asum((a @ y) ** 2), x, tol=1e-5)   # 3-D @ 3-D
    check_grad(lambda a: ad.asum((x @ a) ** 2), y, tol=1e-5)
    check_grad(lambda a: ad.asum((a @ y) ** 2), m, tol=1e-5)   # shared left operand
    check_grad(lambda a: ad.asum((a @ v) ** 2), x, tol=1e-5)   # 3-D @ vector
    check_grad(lambda a: ad.asum((x @ a) ** 2), np.copy(v), tol=1e-5)
    check_grad(lambda a: ad.asum((a @ x) ** 2), np.copy(RNG.normal(3)), tol=1e-5)


def test_batched_attention_block_grads():
    # C x N x D input: gradients of the input and of weights shared by the items
    d = 8
    p = nn.init_attention_layer(CounterRng(5), d, 2 * d)
    x = RNG.normal(3 * 4 * d).reshape(3, 4, d)
    w = RNG.normal(3 * 4 * d).reshape(3, 4, d)
    for block in (nn.encoder_block, lambda h, q: nn.multi_head_block(h, q, 4)):
        check_grad(lambda a: ad.asum(block(a, p) * w), x, tol=1e-5)
        for name in ("wq", "wk", "wv", "wo", "ff_w1", "ln1_g"):
            check_grad(lambda a: ad.asum(block(x, {**p, name: a}) * w), p[name], tol=1e-5)


def test_getitem_scatter_grad():
    x = RNG.normal(6)
    idx = np.array([0, 2, 2, 5])  # repeated index must accumulate
    check_grad(lambda a: ad.asum(a[idx] * np.array([1.0, 2.0, 3.0, 4.0])), x)


def test_unary_function_grads():
    x = RNG.normal_matrix(3, 3) * 0.7
    check_grad(lambda a: ad.asum(ad.sigmoid(a) + ad.exp(a * 0.3)), x)
    y = np.abs(RNG.normal_matrix(2, 4)) + 0.3
    check_grad(lambda a: ad.asum(ad.log(a) + ad.sqrt(a)), y, tol=1e-5)


def test_relu_grad_away_from_kink():
    x = RNG.normal_matrix(4, 4)
    x[np.abs(x) < 0.05] = 0.1
    check_grad(lambda a: ad.asum(ad.relu(a) * 1.7), x)


def test_softmax_and_log_softmax_grads():
    x = RNG.normal_matrix(3, 5)
    w = RNG.normal_matrix(3, 5)
    check_grad(lambda a: ad.asum(ad.softmax(a, axis=-1) * w), x)
    check_grad(lambda a: ad.asum(ad.log_softmax(a, axis=0) * w), x)


def test_sum_mean_axis_grads():
    x = RNG.normal_matrix(3, 4)
    check_grad(lambda a: ad.asum(ad.asum(a, axis=0) ** 2), x, tol=1e-5)
    check_grad(lambda a: ad.asum(ad.mean(a, axis=1, keepdims=True) * 3.0), x)


def test_shape_op_grads():
    x = RNG.normal_matrix(2, 6)
    w = RNG.normal_matrix(3, 4)
    check_grad(lambda a: ad.asum(ad.reshape(ad.transpose(a), (3, 4)) * w), x)
    x3 = RNG.normal(24).reshape(2, 3, 4)
    assert ad.transpose(x3).shape == (2, 4, 3)
    check_grad(lambda a: ad.asum((ad.transpose(a) @ x3) ** 2), x3, tol=1e-5)
    w3 = RNG.normal(24).reshape(4, 3, 2)
    assert ad.transpose(x3, 0, 2).shape == w3.shape
    check_grad(lambda a: ad.asum(ad.transpose(a, 0, -1) * w3), x3)


def test_concat_and_getitem_grads():
    x = RNG.normal_matrix(2, 3)
    other = RNG.normal_matrix(1, 3)

    def build(a):
        cat = ad.concat([a, other], axis=-2)
        rows = cat[np.array([2, 0, 0])] * np.array([[1.0], [2.0], [-1.0]])
        return ad.asum(rows * rows)

    check_grad(build, x, tol=1e-5)


def test_broadcast_gradient_shapes():
    x = RNG.normal(4)
    t = Tensor(x)
    out = ad.asum(Tensor(RNG.normal_matrix(3, 4)) * t)
    out.backward()
    assert t.grad.shape == (4,)


def test_diamond_graph_accumulates():
    t = Tensor(np.array([2.0]))
    y = t * t + t * 3.0  # dy/dt = 2t + 3 = 7
    y.backward(np.array([1.0]))
    assert np.allclose(t.grad, [7.0])


def test_backward_through_shared_subgraph_once():
    t = Tensor(np.array([1.0, 2.0]))
    shared = ad.exp(t)
    out = ad.asum(shared + shared * 2.0)
    out.backward()
    assert np.allclose(t.grad, 3.0 * np.exp(t.data))


def test_value_and_detach_round_trip():
    arr = np.arange(3.0)
    t = Tensor(arr)
    assert ad.is_tensor(t) and not ad.is_tensor(arr)
    assert np.array_equal(ad.value(t), arr)
    d = ad.detach(t)
    d[0] = 99.0
    assert t.data[0] == 0.0  # detach copies


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_softmax_rows_are_distributions(rows, cols, seed):
    x = CounterRng(seed).normal_matrix(rows, cols) * 3.0
    s = ad.softmax(x, axis=-1)
    assert np.all(s > 0)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(ad.log_softmax(x, axis=-1), np.log(s), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(-50, 50))
def test_softmax_shift_invariance(n, seed, shift):
    x = CounterRng(seed).normal(n)
    assert np.allclose(ad.softmax(x), ad.softmax(x + shift), atol=1e-12)


def test_pow_rejects_array_exponent():
    with pytest.raises(TypeError):
        Tensor(np.ones(2)) ** np.ones(2)
