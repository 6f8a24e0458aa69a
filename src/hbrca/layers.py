"""Perceptron blocks, normalization, Adam, and categorical relaxation.

Every message-passing map in the model is a 2-layer perceptron with a
fixed activation, optionally followed by batch normalization over the
row axis (rows are batch-of-entities: atoms or ordered pairs).

The layers hold parameters and record nothing on the tape: each network
is one step inside a fused node that runs on plain arrays. The encoder's
networks (`encoder.encode_logits`) run `Mlp2.run_rows` and
`Mlp2.run_pairs`, which work in place on layer 1's pre-activation, and
their backward is `Mlp2.backward_rows` / `Mlp2.backward_pairs`. The same
forward serves training and evaluation; they differ only in batch norm
(`BatchNorm.normalize`: the batch's statistics, or the running ones in
place) and in the buffers the caller passes. The decoder's networks,
which have no batch norm, run `run_rows` inside its forward
(`decoder._forward`) and `backward_rows` inside the node that training
records over it (`decoder.step_flat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import NumericalError, ParameterError, check_number
from .rng import gumbel

ACTIVATIONS = ("elu", "relu")

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# step schedule: the learning rate is multiplied by LR_DECAY every LR_DECAY_EVERY epochs
LR_DECAY = 0.1
LR_DECAY_EVERY = 200


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int):
    """uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weight and bias.

    The initialization scheme is a package choice, recorded in run
    metadata; it is not prescribed by the architecture tables.
    """
    bound = 1.0 / np.sqrt(fan_in)
    w = T.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
    b = T.Tensor(rng.uniform(-bound, bound, size=(1, fan_out)), requires_grad=True)
    return w, b


@dataclass
class BatchNorm:
    """Row-axis batch normalization with running statistics.

    Training mode normalizes with the current batch's mean/variance
    (biased) and updates the running buffers with momentum BN_MOMENTUM;
    eval mode uses the running buffers only, on a plain array.
    """

    gamma: T.Tensor
    beta: T.Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, width: int) -> "BatchNorm":
        return cls(
            gamma=T.Tensor(np.ones((1, width)), requires_grad=True),
            beta=T.Tensor(np.zeros((1, width)), requires_grad=True),
            running_mean=np.zeros((1, width)),
            running_var=np.ones((1, width)),
        )

    def normalize(self, h: np.ndarray, training: bool) -> tuple:
        """(output, saved) of (h - mean) * inv * gamma + beta, left to right,
        inv = 1 / sqrt(var + eps). Eval mode uses the running statistics,
        works in place on `h` and saves nothing. Training mode uses the
        batch's mean and biased variance, leaves `h` as it is, updates the
        running statistics and saves (xhat, inv) for `backward`."""
        if not training:
            h -= self.running_mean
            h *= 1.0 / np.sqrt(self.running_var + BN_EPS)
            h *= self.gamma.data
            h += self.beta.data
            return h, None
        mean = h.mean(axis=0, keepdims=True)
        xhat = h - mean
        sq = xhat * xhat
        var = np.mean(sq, axis=0, keepdims=True)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        out = np.multiply(xhat, self.gamma.data, out=sq)
        out += self.beta.data
        m = BN_MOMENTUM
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var
        return out, (xhat, inv)

    def backward(self, g: np.ndarray, saved: tuple) -> np.ndarray:
        """Training-mode backward from the output gradient `g`, which it
        overwrites: adds into gamma and beta, returns the gradient at `h`."""
        xhat, inv = saved
        tmp = g * xhat
        self.gamma._accumulate(tmp.sum(axis=0, keepdims=True), owned=True)
        self.beta._accumulate(g.sum(axis=0, keepdims=True), owned=True)
        g *= self.gamma.data  # dL/dxhat
        np.multiply(g, xhat, out=tmp)
        proj = tmp.mean(axis=0, keepdims=True)
        g -= g.mean(axis=0, keepdims=True)
        g -= np.multiply(xhat, proj, out=tmp)
        g *= inv
        return g

    def parameters(self, prefix: str) -> dict:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}

    def buffers(self, prefix: str) -> dict:
        return {
            f"{prefix}.running_mean": self.running_mean,
            f"{prefix}.running_var": self.running_var,
        }


@dataclass
class Mlp2:
    """act(act(x W1 + b1) W2 + b2), then optional batch norm."""

    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor
    activation: str = "elu"
    bn: BatchNorm | None = None

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_in: int,
        n_hidden: int,
        n_out: int,
        activation: str = "elu",
        batch_norm: bool = False,
    ) -> "Mlp2":
        if activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation '{activation}'")
        w1, b1 = init_linear(rng, n_in, n_hidden)
        w2, b2 = init_linear(rng, n_hidden, n_out)
        bn = BatchNorm.create(n_out) if batch_norm else None
        return cls(w1, b1, w2, b2, activation, bn)

    @property
    def n_in(self) -> int:
        return self.w1.shape[0]

    def run_rows(self, x: np.ndarray, training: bool) -> tuple:
        """(output, saved) on the rows of the plain array `x`; see `_run_rest`."""
        pre = np.matmul(x, self.w1.data)
        pre += self.b1.data
        return self._run_rest(pre, None, training)

    def run_pairs(self, node_h: np.ndarray, idx, training: bool,
                  pre: np.ndarray | None = None, out: np.ndarray | None = None) -> tuple:
        """`run_rows` on the [sender, receiver] rows of every ordered pair of
        the B*N node rows `node_h` (`idx`: the batch's PairIndex), written
        into `pre` [B*E, hidden] and `out` [B*E, n_out] (fresh arrays if
        None). Layer 1 runs per node, [s, r] W1 + b1 = s W1[:F] + (r W1[F:] + b1):
        the sender half is gathered by `idx.sender_rows`, and the receiver
        half is added over the receiver-major [B*N, N-1, hidden] view."""
        half = self.n_in // 2
        w1 = self.w1.data
        send = np.matmul(node_h, w1[:half])
        recv = np.matmul(node_h, w1[half:])
        recv += self.b1.data
        pre = np.take(send, idx.sender_rows, axis=0, out=pre)
        pre.reshape(len(recv), idx.n_nodes - 1, -1)[...] += recv[:, None, :]
        return self._run_rest(pre, out, training)

    def _run_rest(self, pre: np.ndarray, out: np.ndarray | None, training: bool) -> tuple:
        """Everything after layer 1's pre-activation: `pre` becomes the
        hidden activation in place and layer 2's activation goes to `out`
        (a fresh array if None), then batch norm. Returns the output and
        what the backward reads: (hidden, layer 2's activation, batch norm's)."""
        act, _ = T._activation(self.activation)
        act(pre, out=pre)
        out = np.matmul(pre, self.w2.data, out=out)
        out += self.b2.data
        act(out, out=out)
        h, bn_saved = out, None
        if self.bn is not None:
            h, bn_saved = self.bn.normalize(out, training)
        T.assert_finite(h, "perceptron output")
        return h, (pre, out, bn_saved)

    def backward_rows(self, g: np.ndarray, x: np.ndarray, saved: tuple, x_grad: bool = True):
        """Backward of `run_rows` in training mode from the output gradient
        `g`, which it overwrites; returns dL/dx, or None without `x_grad`."""
        dh = self._backward_rest(g, saved)
        T._affine_backward(dh, x, self.w1, self.b1)
        return dh @ self.w1.data.T if x_grad else None

    def backward_pairs(self, g: np.ndarray, node_h: np.ndarray, idx, saved: tuple) -> np.ndarray:
        """Backward of `run_pairs` in training mode; returns dL/d`node_h`.
        Each node row's sender and receiver gradients are its N-1 pair
        rows summed in receiver-major order (the sender's through the
        transpose map `idx.sigma`)."""
        dh = self._backward_rest(g, saved)
        half, rows = self.n_in // 2, len(node_h)
        g_recv = dh.reshape(rows, idx.n_nodes - 1, -1).sum(axis=1)
        g_send = dh[idx.sigma].reshape(rows, idx.n_nodes - 1, -1).sum(axis=1)
        self.b1._accumulate(g_recv.sum(axis=0, keepdims=True), owned=True)
        self.w1._accumulate(np.concatenate([node_h.T @ g_send, node_h.T @ g_recv]), owned=True)
        w1 = self.w1.data
        return g_send @ w1[:half].T + g_recv @ w1[half:].T

    def _backward_rest(self, g: np.ndarray, saved: tuple) -> np.ndarray:
        """Backward of `_run_rest`: batch norm, then the perceptron; returns
        the gradient at layer 1's pre-activation."""
        hidden, out, bn_saved = saved
        if self.bn is not None:
            g = self.bn.backward(g, bn_saved)
        _, slope = T._activation(self.activation)
        return T._perceptron_backward(g, hidden, out, self.w2, self.b2, slope)

    def parameters(self, prefix: str) -> dict:
        params = {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }
        if self.bn is not None:
            params.update(self.bn.parameters(f"{prefix}.bn"))
        return params

    def buffers(self, prefix: str) -> dict:
        return self.bn.buffers(f"{prefix}.bn") if self.bn is not None else {}


@dataclass
class Linear:
    """Plain dense layer used for classifier and output heads."""

    w: T.Tensor
    b: T.Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, n_in: int, n_out: int) -> "Linear":
        w, b = init_linear(rng, n_in, n_out)
        return cls(w, b)

    def parameters(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


# -- Adam ------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus step count."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict, lr: float) -> None:
    """One in-place Adam update; rejects non-finite gradients."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for '{name}', step rejected")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        T.assert_finite(p.data, f"parameter '{name}' after Adam step")


def decayed_lr(lr0: float, epoch: int) -> float:
    """Step schedule: multiply by LR_DECAY at epochs 200, 400, ..."""
    return lr0 * LR_DECAY ** (epoch // LR_DECAY_EVERY)


# -- categorical relaxation -------------------------------------------------


def gumbel_softmax(
    logits,
    tau: float,
    rng: np.random.Generator,
    hard: bool = False,
    noise: np.ndarray | None = None,
):
    """Sample from softmax((logits + g) / tau) with standard Gumbel g.

    `logits` is [R, K]. Concrete mode returns a differentiable Tensor of
    relaxed one-hots: one tape node, softmax((logits + g) * (1/tau)), whose
    backward is the softmax's, then the product's (times 1/tau). Hard mode
    returns exact one-hot rows (a plain array, no gradient), which is an
    exact categorical sample by the Gumbel-max property.
    `noise` overrides the Gumbel draw (used by gradient checks).
    """
    check_number("tau", tau, minimum=0, above=True)
    logits_t = logits if isinstance(logits, T.Tensor) else T.Tensor(logits)
    if noise is None:
        noise = gumbel(rng, logits_t.data.shape)
    perturbed = logits_t.data + noise
    if hard:
        idx = perturbed.argmax(axis=-1)
        out = np.zeros_like(perturbed)
        np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
        return out
    inv_tau = 1.0 / tau
    out = T._softmax(perturbed * inv_tau)

    def backward(g):
        logits_t._accumulate(T._softmax_backward(g, out) * inv_tau, owned=True)

    return T.node(out, (logits_t,), backward)
