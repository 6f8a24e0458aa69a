"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A Tensor wraps an ndarray plus an optional tape node (parents and a
backward closure). Calling backward() on a scalar loss walks the tape in
reverse topological order and accumulates gradients into every tensor
created with requires_grad=True.

Only the operations this package composes are provided; everything is
float64 and single-threaded apart from whatever BLAS does inside matmul.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import AbsentGradientError, DimensionError, NumericalError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {what}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- tape plumbing ---------------------------------------------------

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        # `owned` marks a buffer freshly allocated by the caller, safe to
        # adopt without copying; shared/view buffers must be copied first.
        if self.grad is None:
            self.grad = grad if owned else np.array(grad)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar loss")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                # interior activations are not needed once consumed
                if node._parents:
                    node.grad = None


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def collect_grads(params: dict) -> dict:
    """Gradient per named parameter; raises if one is off the tape."""
    grads = {}
    for name, p in params.items():
        if p.grad is None:
            raise AbsentGradientError(f"no gradient recorded for '{name}'")
        grads[name] = p.grad
    return grads


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a._accumulate(ga, owned=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            b._accumulate(gb, owned=gb is not g)

    return _node(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a._accumulate(ga, owned=ga is not g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape), owned=True)

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), owned=True)

    return _node(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
                owned=True,
            )

    return _node(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g, owned=True)

    return _node(-a.data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
        )
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T, owned=True)
        if b.requires_grad:
            b._accumulate(a.data.T @ g, owned=True)

    return _node(out_data, (a, b), backward)


# -- pointwise nonlinearities --------------------------------------------


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0.0
    out_data = np.where(mask, a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask, owned=True)

    return _node(out_data, (a,), backward)


def elu(a, alpha: float = 1.0) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0.0
    expm1 = alpha * np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(mask, a.data, expm1)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.where(mask, 1.0, expm1 + alpha), owned=True)

    return _node(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data, owned=True)

    return _node(out_data, (a,), backward)


def log(a) -> Tensor:
    a = _wrap(a)
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data, owned=True)

    return _node(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root with subgradient 0 at exactly 0."""
    a = _wrap(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            denom = 2.0 * out_data
            grad = np.where(a.data > 0.0, g / np.where(denom > 0.0, denom, 1.0), 0.0)
            a._accumulate(grad, owned=True)

    return _node(out_data, (a,), backward)


def square(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(2.0 * g * a.data, owned=True)

    return _node(a.data * a.data, (a,), backward)


def absolute(a) -> Tensor:
    """|x| with subgradient 0 at 0."""
    a = _wrap(a)
    sign = np.sign(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * sign, owned=True)

    return _node(np.abs(a.data), (a,), backward)


# -- reductions & reshaping ----------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy(), owned=True)
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy(), owned=True)

    return _node(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _node(out_data, (a,), backward)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return _node(out_data, tuple(tensors), backward)


def cols(a, lo: int, hi: int) -> Tensor:
    """Column slice [:, lo:hi] of a 2-D tensor."""
    a = _wrap(a)
    out_data = a.data[:, lo:hi]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, lo:hi] = g
            a._accumulate(full, owned=True)

    return _node(out_data.copy(), (a,), backward)


def rows(a, lo: int, hi: int) -> Tensor:
    """Row slice [lo:hi] of a 2-D tensor (a contiguous view, no copy)."""
    a = _wrap(a)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[lo:hi] = g
            a._accumulate(full, owned=True)

    return _node(a.data[lo:hi], (a,), backward)


# -- graph gather/scatter ------------------------------------------------


def repeat_rows(a, times: int) -> Tensor:
    """Repeat each row `times` times, keeping blocks contiguous."""
    a = _wrap(a)
    out_data = np.repeat(a.data, times, axis=0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape[0], times, -1).sum(axis=1), owned=True)

    return _node(out_data, (a,), backward)


def permute_rows(a, perm: np.ndarray, inv_perm: np.ndarray) -> Tensor:
    """Row gather by a permutation; backward scatters via the inverse."""
    a = _wrap(a)
    out_data = a.data[perm]

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[inv_perm], owned=True)

    return _node(out_data, (a,), backward)


def segment_sum_rows(a, group: int) -> Tensor:
    """Sum contiguous groups of `group` rows (fixed-order reduction)."""
    a = _wrap(a)
    rows = a.data.shape[0]
    if rows % group:
        raise DimensionError(f"{rows} rows not divisible into groups of {group}")
    out_data = a.data.reshape(rows // group, group, -1).sum(axis=1)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.repeat(g, group, axis=0), owned=True)

    return _node(out_data, (a,), backward)


# -- fused normalization ----------------------------------------------------


def batchnorm_rows(x, gamma, beta, eps: float):
    """Row-axis batch normalization as one fused op.

    Normalizes each column of [R, F] by the batch mean and biased
    variance, then applies the affine pair. Returns (out, mean, var)
    with mean/var as plain arrays for running-statistic updates.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    rows = x.data.shape[0]
    mean = x.data.mean(axis=0, keepdims=True)
    centered = x.data - mean
    var = np.mean(centered * centered, axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=0, keepdims=True), owned=True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0, keepdims=True), owned=True)
        if x.requires_grad:
            dxhat = g * gamma.data
            term = dxhat - dxhat.mean(axis=0, keepdims=True)
            term -= xhat * (dxhat * xhat).mean(axis=0, keepdims=True)
            x._accumulate(term * inv, owned=True)

    out = _node(out_data, (x, gamma, beta), backward)
    return out, mean, var


# -- softmax --------------------------------------------------------------


def softmax_rows(a) -> Tensor:
    """Row softmax over the last axis of a 2-D tensor."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * out_data).sum(axis=1, keepdims=True)
            a._accumulate(out_data * (g - inner), owned=True)

    return _node(out_data, (a,), backward)
