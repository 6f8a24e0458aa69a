"""Perceptron blocks, normalization, Adam, and categorical relaxation.

Every message-passing map in the model is a 2-layer perceptron with a
fixed activation, optionally followed by batch normalization over the
row axis (rows are batch-of-entities: atoms or ordered pairs).

A perceptron runs in one of two ways. Training (`Mlp2.forward`,
`Mlp2.forward_pairs`) is taped: it computes layer 1's pre-activation
x W1 + b1 (per node and then gathered, for pairs) and hands it to
`tensor.mlp2`, one tape node that applies both activations and layer 2
with a hand-written backward; batch norm with the batch's statistics
follows as one more node. From the pre-activation on, a perceptron thus
adds one node to the tape instead of four, and keeps two pair-sized
arrays (hidden activation and output) instead of up to eight.

Evaluation (`Mlp2.eval_rows`, `Mlp2.eval_pairs`) records nothing: it
runs on plain arrays, in place on the pre-activation, through the same
activation kernels in the same order of operations, with batch norm on
the running statistics (`BatchNorm.eval_`), so it gives the bits the
taped ops would. `eval_pairs` writes into buffers its caller passes: the
encoder's eval pass (`encoder.encode_logits`) allocates two pair-sized
buffers per call and both pair networks reuse them, because a fresh
pair-sized array often comes back from the allocator as pages that fault
in again. The decoder's networks skip the tape as well: they run on
plain arrays inside its one-node transition (`decoder.step_flat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DimensionError, NumericalError, ParameterError
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

    def forward(self, x: T.Tensor) -> T.Tensor:
        """Training mode: normalize by the batch and update the running
        statistics."""
        out, mean, var = T.batchnorm_rows(x, self.gamma, self.beta, BN_EPS)
        m = BN_MOMENTUM
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var
        return out

    def eval_(self, h: np.ndarray) -> np.ndarray:
        """Eval mode on a plain array, in place:
        (h - mean) * inv * gamma + beta, left to right, inv = 1 / sqrt(var + eps)."""
        h -= self.running_mean
        h *= 1.0 / np.sqrt(self.running_var + BN_EPS)
        h *= self.gamma.data
        h += self.beta.data
        return h

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

    def forward(self, x: T.Tensor) -> T.Tensor:
        """Training mode on the rows of `x`, taped."""
        x = x if isinstance(x, T.Tensor) else T.Tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.n_in:
            raise DimensionError(
                f"expected input [*, {self.n_in}], got {x.data.shape}"
            )
        return self._rest(T.add(T.matmul(x, self.w1), self.b1))

    def forward_pairs(self, node_h: T.Tensor, idx) -> T.Tensor:
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
        return self._rest(T.add(send, T.repeat_rows(recv, fan)))

    def _rest(self, pre: T.Tensor) -> T.Tensor:
        """Everything after layer 1's pre-activation: one fused node, then norm."""
        h = T.mlp2(pre, self.w2, self.b2, self.activation)
        if self.bn is not None:
            h = self.bn.forward(h)
        T.assert_finite(h.data, "mlp2 output")
        return h

    def eval_rows(self, x: np.ndarray) -> np.ndarray:
        """Eval mode on the rows of the plain array `x`; records nothing."""
        pre = np.matmul(x, self.w1.data)
        pre += self.b1.data
        return self._eval_rest(pre, None)

    def eval_pairs(self, node_h: np.ndarray, idx, pre: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        """`eval_rows` on the pair rows of `forward_pairs`, written into the
        caller's buffers `pre` [B*E, hidden] and `out` [B*E, n_out]. The
        sender half is gathered by `idx.sender_rows`; the receiver half is
        added over the receiver-major [B*N, N-1, hidden] view."""
        half = self.n_in // 2
        w1 = self.w1.data
        send = np.matmul(node_h, w1[:half])
        recv = np.matmul(node_h, w1[half:])
        recv += self.b1.data
        np.take(send, idx.sender_rows, axis=0, out=pre)
        pre.reshape(len(recv), idx.n_nodes - 1, -1)[...] += recv[:, None, :]
        return self._eval_rest(pre, out)

    def _eval_rest(self, pre: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """`_rest` on plain arrays: `pre` becomes the hidden activation in
        place, and the output goes to `out` (a fresh array if None)."""
        act, _ = T._activation(self.activation)
        act(pre, out=pre)
        out = np.matmul(pre, self.w2.data, out=out)
        out += self.b2.data
        act(out, out=out)
        if self.bn is not None:
            self.bn.eval_(out)
        T.assert_finite(out, "mlp2 output")
        return out

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
    relaxed one-hots. Hard mode returns exact one-hot rows (a plain
    array, no gradient), which is an exact categorical sample by the
    Gumbel-max property.
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
    return T.softmax_rows(T.mul(T.add(logits_t, noise), 1.0 / tau))
