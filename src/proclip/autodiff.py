"""Minimal reverse-mode automatic differentiation on numpy arrays.

The model forward passes are written against a small set of functions
(softmax, relu, sigmoid, ...) plus the arithmetic operators.  Each function
dispatches on its argument: plain ndarrays take the fast numpy path used at
inference, `Tensor` arguments build a tape so the trainer can backpropagate.
One forward implementation therefore serves both paths.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """Array node in the autodiff graph."""

    __array_ufunc__ = None  # make numpy defer binary ops to us

    __slots__ = ("data", "grad", "_parents", "_grad_fns")

    def __init__(self, data, parents=(), grad_fns=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._grad_fns = grad_fns

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- graph -----------------------------------------------------------
    def backward(self, grad=None):
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        for node in reversed(topo):
            if node._grad_fns is None or node.grad is None:
                continue
            for parent, fn in zip(node._parents, node._grad_fns):
                pg = fn(node.grad)
                if pg is None:
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg

    # -- operators -------------------------------------------------------
    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Tensor(self.data + o.data, (self, o), (
            lambda g: _unbroadcast(g, self.data.shape),
            lambda g: _unbroadcast(g, o.data.shape),
        ))

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other):
        o = self._coerce(other)
        return Tensor(self.data - o.data, (self, o), (
            lambda g: _unbroadcast(g, self.data.shape),
            lambda g: _unbroadcast(-g, o.data.shape),
        ))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Tensor(self.data * o.data, (self, o), (
            lambda g: _unbroadcast(g * o.data, self.data.shape),
            lambda g: _unbroadcast(g * self.data, o.data.shape),
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return Tensor(self.data / o.data, (self, o), (
            lambda g: _unbroadcast(g / o.data, self.data.shape),
            lambda g: _unbroadcast(-g * self.data / (o.data ** 2), o.data.shape),
        ))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, p):
        if not np.isscalar(p):
            raise TypeError("only scalar exponents are supported")
        return Tensor(self.data ** p, (self,), (
            lambda g: g * p * self.data ** (p - 1),
        ))

    def __matmul__(self, other):
        o = self._coerce(other)
        a, b = self.data, o.data
        # a vector operand acts as a 1 x n (left) or n x 1 (right) matrix;
        # leading batch axes broadcast and their gradients are summed back
        a2 = a[None, :] if a.ndim == 1 else a
        b2 = b[:, None] if b.ndim == 1 else b

        def as_matrix(g):
            if b.ndim == 1:
                g = np.expand_dims(g, -1)
            if a.ndim == 1:
                g = np.expand_dims(g, -2)
            return g

        def da(g):
            return _unbroadcast(as_matrix(g) @ b2.swapaxes(-1, -2), a2.shape).reshape(a.shape)

        def db(g):
            return _unbroadcast(a2.swapaxes(-1, -2) @ as_matrix(g), b2.shape).reshape(b.shape)

        return Tensor(a @ b, (self, o), (da, db))

    def __rmatmul__(self, other):
        return self._coerce(other).__matmul__(self)

    def __getitem__(self, idx):
        def grad_fn(g):
            out = np.zeros_like(self.data)
            np.add.at(out, idx, g)
            return out
        return Tensor(self.data[idx], (self,), (grad_fn,))


# -- dispatch helpers ----------------------------------------------------

def is_tensor(x) -> bool:
    return isinstance(x, Tensor)


def value(x):
    """Underlying ndarray of x (identity for plain arrays)."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _softmax_np(x, axis):
    # in place on one fresh array: a block's attention weights are the
    # largest temporaries of an index build
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(x, axis=-1):
    if isinstance(x, Tensor):
        y = _softmax_np(x.data, axis)

        def grad_fn(g):
            return y * (g - np.sum(g * y, axis=axis, keepdims=True))

        return Tensor(y, (x,), (grad_fn,))
    return _softmax_np(np.asarray(x, dtype=np.float64), axis)


def log_softmax(x, axis=-1):
    if isinstance(x, Tensor):
        z = x.data - np.max(x.data, axis=axis, keepdims=True)
        lse = np.log(np.sum(np.exp(z), axis=axis, keepdims=True))
        out = z - lse
        sm = np.exp(out)

        def grad_fn(g):
            return g - sm * np.sum(g, axis=axis, keepdims=True)

        return Tensor(out, (x,), (grad_fn,))
    xv = np.asarray(x, dtype=np.float64)
    z = xv - np.max(xv, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def relu(x):
    if isinstance(x, Tensor):
        mask = x.data > 0
        return Tensor(x.data * mask, (x,), (lambda g: g * mask,))
    return np.maximum(x, 0.0)


def sigmoid(x):
    if isinstance(x, Tensor):
        y = 1.0 / (1.0 + np.exp(-x.data))
        return Tensor(y, (x,), (lambda g: g * y * (1.0 - y),))
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def exp(x):
    if isinstance(x, Tensor):
        y = np.exp(x.data)
        return Tensor(y, (x,), (lambda g: g * y,))
    return np.exp(x)


def log(x):
    if isinstance(x, Tensor):
        return Tensor(np.log(x.data), (x,), (lambda g: g / x.data,))
    return np.log(x)


def sqrt(x):
    if isinstance(x, Tensor):
        y = np.sqrt(x.data)
        return Tensor(y, (x,), (lambda g: g * 0.5 / y,))
    return np.sqrt(x)


def asum(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        y = x.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, x.data.shape).copy()

        return Tensor(y, (x,), (grad_fn,))
    return np.sum(x, axis=axis, keepdims=keepdims)


def mean(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        n = x.data.size if axis is None else x.data.shape[axis]
        return asum(x, axis=axis, keepdims=keepdims) * (1.0 / n)
    return np.mean(x, axis=axis, keepdims=keepdims)


def transpose(x, axis1=-1, axis2=-2):
    """Swap two axes, by default the last two (a batched matrix transpose)."""
    if isinstance(x, Tensor):
        return Tensor(x.data.swapaxes(axis1, axis2), (x,),
                      (lambda g: np.asarray(g).swapaxes(axis1, axis2),))
    return np.asarray(x).swapaxes(axis1, axis2)


def reshape(x, shape):
    if isinstance(x, Tensor):
        old = x.data.shape
        return Tensor(x.data.reshape(shape), (x,), (lambda g: np.asarray(g).reshape(old),))
    return np.asarray(x).reshape(shape)


def concat(parts, axis=0):
    if any(isinstance(p, Tensor) for p in parts):
        parts = [p if isinstance(p, Tensor) else Tensor(p) for p in parts]
        datas = [p.data for p in parts]
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def make_fn(i):
            sl = [slice(None)] * datas[0].ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            sl = tuple(sl)
            return lambda g: np.asarray(g)[sl]

        return Tensor(np.concatenate(datas, axis=axis), tuple(parts),
                      tuple(make_fn(i) for i in range(len(parts))))
    return np.concatenate(parts, axis=axis)


def detach(x):
    return x.data.copy() if isinstance(x, Tensor) else np.asarray(x)
