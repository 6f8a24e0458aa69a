"""Perceptron blocks, normalization, Adam, and categorical relaxation.

Every message-passing map in the model is a 2-layer perceptron with a
fixed activation, optionally followed by batch normalization over the
row axis (rows are batch-of-entities: atoms or ordered pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DimensionError, NumericalError, ParameterError
from .rng import gumbel

ACTIVATIONS = ("elu", "relu")


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
    (biased) and updates the running buffers; eval mode uses the
    running buffers only.
    """

    gamma: T.Tensor
    beta: T.Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def create(cls, width: int) -> "BatchNorm":
        return cls(
            gamma=T.Tensor(np.ones((1, width)), requires_grad=True),
            beta=T.Tensor(np.zeros((1, width)), requires_grad=True),
            running_mean=np.zeros((1, width)),
            running_var=np.ones((1, width)),
        )

    def forward(self, x: T.Tensor, training: bool) -> T.Tensor:
        if training:
            out, mean, var = T.batchnorm_rows(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            return out
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = T.mul(T.sub(x, self.running_mean), inv)
        return T.add(T.mul(xhat, self.gamma), self.beta)

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

    def forward(self, x: T.Tensor, training: bool = False) -> T.Tensor:
        x = x if isinstance(x, T.Tensor) else T.Tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.n_in:
            raise DimensionError(
                f"expected input [*, {self.n_in}], got {x.data.shape}"
            )
        return self._rest(T.add(T.matmul(x, self.w1), self.b1), training)

    def forward_pairs(self, node_h: T.Tensor, idx, training: bool = False) -> T.Tensor:
        """`forward` on the [sender, receiver] rows of every ordered pair of
        the B*N node rows `node_h` (`idx`: the batch's PairIndex). Layer 1
        runs per node, [s, r] W1 + b1 = s W1[:F] + (r W1[F:] + b1), then gathers."""
        half = self.n_in // 2
        if node_h.data.ndim != 2 or 2 * node_h.data.shape[1] != self.n_in:
            raise DimensionError(f"expected node input [*, {half}], got {node_h.data.shape}")
        fan = idx.n_nodes - 1
        send = T.matmul(node_h, T.rows(self.w1, 0, half))
        recv = T.add(T.matmul(node_h, T.rows(self.w1, half, 2 * half)), self.b1)
        send = T.permute_rows(T.repeat_rows(send, fan), idx.sigma, idx.sigma)
        return self._rest(T.add(send, T.repeat_rows(recv, fan)), training)

    def _rest(self, pre: T.Tensor, training: bool) -> T.Tensor:
        """Everything after layer 1's pre-activation: activations, layer 2, norm."""
        act = T.elu if self.activation == "elu" else T.relu
        h = act(pre)
        h = act(T.add(T.matmul(h, self.w2), self.b2))
        if self.bn is not None:
            h = self.bn.forward(h, training)
        T.assert_finite(h.data, "mlp2 output")
        return h

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

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.add(T.matmul(x, self.w), self.b)

    def parameters(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


# -- Adam ------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus step count."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    b1, b2 = state.beta1, state.beta2
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
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        T.assert_finite(p.data, f"parameter '{name}' after Adam step")


def decayed_lr(lr0: float, epoch: int, decay: float = 0.1, every: int = 200) -> float:
    """Step schedule: multiply by `decay` at epochs 200, 400, ..."""
    return lr0 * decay ** (epoch // every)


# -- categorical relaxation -------------------------------------------------


def gumbel_softmax(
    logits,
    tau: float,
    rng: np.random.Generator,
    hard: bool = False,
    noise: np.ndarray | None = None,
):
    """Sample from softmax((logits + g) / tau) with standard Gumbel g.

    Concrete mode returns a differentiable Tensor of relaxed one-hots.
    Hard mode returns exact one-hot rows (a plain array, no gradient),
    which is an exact categorical sample by the Gumbel-max property.
    `noise` overrides the Gumbel draw (used by gradient checks).
    """
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits_t = logits if isinstance(logits, T.Tensor) else T.Tensor(logits)
    if noise is None:
        noise = gumbel(rng, logits_t.data.shape)
    if hard:
        perturbed = logits_t.data + noise
        idx = perturbed.argmax(axis=-1)
        out = np.zeros_like(perturbed)
        np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
        return out
    flat = T.reshape(logits_t, (-1, logits_t.data.shape[-1]))
    y = T.softmax_rows(T.mul(T.add(flat, noise.reshape(flat.data.shape)), 1.0 / tau))
    return T.reshape(y, logits_t.data.shape)
