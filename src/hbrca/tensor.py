"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A Tensor wraps an ndarray plus an optional tape node (parents and a
backward closure). Calling backward() on a scalar loss walks the tape in
reverse topological order and accumulates gradients into every tensor
created with requires_grad=True. A tape is differentiated once: backward()
unlinks it as it goes, so nothing the loss still references keeps it alive.

The tape is for training only. An op records a node when one of its
inputs needs a gradient, and every model parameter does; there is no
switch that turns recording off. Evaluation therefore never hands a
parameter Tensor to an op: it runs the networks' plain-array forwards
(`encoder._forward`, `decoder._forward`) and `_softmax` on `.data`.

Only the operations this package composes are provided; everything is
float64 and single-threaded apart from whatever BLAS does inside matmul.

Elementwise kernels on pair-sized arrays never select with np.where on a
data-dependent mask: np.where(z > 0, z, 0.0) took 1.07 ms on a 2880x64
array where np.maximum(z, 0.0) took 0.11 ms (about 10x; numpy 2.4.6, one
thread of a 2-vCPU Xeon VM) and gives the same bits, +0.0 at z = -0.0
included.

The two networks of the model are each fused into nodes built outside
this module, for the same reason: each elementwise pass over a
pair-sized array, and each fresh buffer it allocates, costs about as
much as a small GEMM. In training the encoder's forward
(`encoder.encode_logits`) is one node per call and the decoder's
transition (`decoder.step_flat`) one node per step. Each is a node over
its network's plain-array forward, built on `_node`,
`Tensor._accumulate`, `_perceptron_backward` and `_affine_backward`,
and every network in both runs `layers.Mlp2.run_rows` (or `run_pairs`).
Every activation goes through `_activation`, which looks its kernel up
by name at each call, so every ReLU in the program runs the one kernel
`_relu`.
"""

from __future__ import annotations

import numpy as np

from .errors import AbsentGradientError, DimensionError, NumericalError, ParameterError


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
                # a loss kept past its training step would otherwise hold
                # its whole tape through the next step's forward pass
                node.grad = None
                node._backward = None
                node._parents = ()


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents, backward) -> Tensor:
    """A tape node over `parents`; it records only if one needs a gradient."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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


# -- pointwise nonlinearities --------------------------------------------


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


def tsum(a) -> Tensor:
    """Sum of every entry, as a 0-d tensor."""
    a = _wrap(a)
    out_data = a.data.sum()

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy(), owned=True)

    return _node(out_data, (a,), backward)


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


# -- array-level perceptron for the fused nodes --------------------------
#
# Activation kernels take an optional `out` (pass the input to work in
# place) and never select with np.where. Each slope is read back from the
# activation's output, so a node keeps no mask or expm1 buffer.


def _relu(z: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def _relu_slope(y: np.ndarray) -> np.ndarray:
    # relu(z) > 0 exactly where z > 0
    return y > 0.0


def _elu(z: np.ndarray, out=None) -> np.ndarray:
    """ELU (alpha 1) as e + max(z, 0), e = expm1(min(z, 0)): e is exactly 0
    where z > 0, so this is the two-branch form bit for bit."""
    e = np.minimum(z, 0.0)
    np.expm1(e, out=e)
    y = np.maximum(z, 0.0, out=out)
    y += e
    return y


def _elu_slope(y: np.ndarray) -> np.ndarray:
    # min(elu(z), 0) is e, and the slope is e + 1 on both sides of 0
    slope = np.minimum(y, 0.0)
    slope += 1.0
    return slope


def _activation(name: str) -> tuple:
    """(kernel, slope) of an activation. The kernels are looked up by name
    at each call, so every use goes through the one module-level kernel."""
    if name == "relu":
        return _relu, _relu_slope
    if name == "elu":
        return _elu, _elu_slope
    raise ParameterError(f"unknown activation '{name}'")


def _perceptron_backward(g, hidden, out, w2: Tensor, b2: Tensor, slope) -> np.ndarray:
    """Backward of (hidden, out) = (act(pre), act(hidden @ w2 + b2)) from
    the output gradient `g`, which it scales in place: adds into b2 and w2
    and returns the gradient at `pre`."""
    g *= slope(out)
    b2._accumulate(g.sum(axis=0, keepdims=True), owned=True)
    w2._accumulate(hidden.T @ g, owned=True)
    dh = g @ w2.data.T
    dh *= slope(hidden)
    return dh


def _affine_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None) -> None:
    """Adds the gradients of x @ w (+ b) under upstream gradient g."""
    if b is not None:
        b._accumulate(g.sum(axis=0, keepdims=True), owned=True)
    w._accumulate(x.T @ g, owned=True)


# -- softmax --------------------------------------------------------------


def _softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis of a 2-D array (`softmax_rows`'
    forward, which evaluation calls on its own)."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows(a) -> Tensor:
    """Row softmax over the last axis of a 2-D tensor."""
    a = _wrap(a)
    out_data = _softmax(a.data)

    def backward(g):
        if a.requires_grad:
            inner = (g * out_data).sum(axis=1, keepdims=True)
            a._accumulate(out_data * (g - inner), owned=True)

    return _node(out_data, (a,), backward)
