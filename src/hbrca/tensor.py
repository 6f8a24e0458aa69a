"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A Tensor wraps an ndarray plus an optional tape node (parents and a
backward closure). Calling backward() on a scalar loss walks the tape in
reverse topological order and accumulates gradients into every tensor
created with requires_grad=True. A tape is differentiated once: backward()
unlinks it as it goes, so nothing the loss still references keeps it alive.

The module has no elementwise ops. Every node is a fused one, built with
`node` outside this module, whose forward runs on plain arrays and whose
backward is hand-written array code. A training batch records four:
  1. the encoder's forward (`encoder.encode_logits`);
  2. the concrete Gumbel-softmax draw (`layers.gumbel_softmax`);
  3. the decoder's scheduled rollout (`decoder.rollout_train`), which
     runs one transition (`decoder.step_flat`) per step;
  4. the loss head (`training.composite_loss`): the posterior's softmax,
     KL, the per-step reconstruction sums, sparsity and the weighted total.
Each backward adds into each gradient with the expressions, and in the
order, of the op-by-op chain it replaced, so the gradients are that
chain's bit for bit. `backward()` runs the four in reverse: the loss
head, the rollout, the Gumbel draw, the encoder.

`node` records only when one of its parents needs a gradient, and every
model parameter does; there is no switch that turns recording off.
Evaluation therefore never hands a parameter Tensor to a node: it runs
the networks' plain-array forwards (`encoder._forward`,
`decoder._forward`) and `_softmax` on `.data`.

Everything is float64 and single-threaded apart from whatever BLAS does
inside a matrix product.

Elementwise kernels on pair-sized arrays never select with np.where on a
data-dependent mask: np.where(z > 0, z, 0.0) took 1.07 ms on a 2880x64
array where np.maximum(z, 0.0) took 0.11 ms (about 10x; numpy 2.4.6, one
thread of a 2-vCPU Xeon VM) and gives the same bits, +0.0 at z = -0.0
included. Both networks build their nodes on `Tensor._accumulate`,
`_perceptron_backward` and `_affine_backward`, and every network runs
`layers.Mlp2.run_rows` (or `run_pairs`). Every activation goes through
`_activation`, which looks its kernel up by name at each call, so every
ReLU in the program runs the one kernel `_relu`.
"""

from __future__ import annotations

import numpy as np

from .errors import AbsentGradientError, DimensionError, NumericalError, ParameterError


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {what}")


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


def node(data: np.ndarray, parents, backward) -> Tensor:
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
    """Row softmax over the last axis of a 2-D array."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient at the input of `_softmax` from the gradient `g` at its
    output `out`."""
    inner = (g * out).sum(axis=1, keepdims=True)
    return out * (g - inner)
