"""Next-state prediction conditioned on sampled edge types.

Each causal edge type owns a message network; the non-causal type
contributes exactly zero. Messages into a node are summed, mapped
through the update network, and added to the current position (skip
connection), so a zero-parameter decoder is the identity map.

The message heads are linear, so each one runs after the sum over a
receiver's incoming edges rather than on every pair row:

    sum_j a_j (h_j W + b) = (sum_j a_j h_j) W + (sum_j a_j) b,

with a_j the edge-type weight of pair j -> i and h_j the message
network's hidden output. The bias term depends on the edges alone and
is built once per rollout (`edge_terms`). Results match the per-pair
form up to rounding in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, ParameterError
from .graph import PairIndex, pair_index
from .layers import Linear, Mlp2


@dataclass
class DecoderParams:
    """Two per-edge-type message stacks plus the node update stack.

    The hidden stacks follow the architecture table (ReLU, width 64);
    the linear heads map hidden activations to the message dimension
    and to D output coordinates.
    """

    msg_hb: Mlp2
    msg_hb_head: Linear
    msg_sep: Mlp2
    msg_sep_head: Linear
    node: Mlp2
    out_head: Linear

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_dims: int,
        hidden: int = 64,
        msg_dim: int = 64,
    ) -> "DecoderParams":
        return cls(
            msg_hb=Mlp2.create(rng, 2 * n_dims, hidden, hidden, "relu"),
            msg_hb_head=Linear.create(rng, hidden, msg_dim),
            msg_sep=Mlp2.create(rng, 2 * n_dims, hidden, hidden, "relu"),
            msg_sep_head=Linear.create(rng, hidden, msg_dim),
            node=Mlp2.create(rng, msg_dim, hidden, hidden, "relu"),
            out_head=Linear.create(rng, hidden, n_dims),
        )

    @property
    def n_dims(self) -> int:
        return self.out_head.w.shape[1]

    def parameters(self, prefix: str = "dec") -> dict:
        params = {}
        params.update(self.msg_hb.parameters(f"{prefix}.msg_hb"))
        params.update(self.msg_hb_head.parameters(f"{prefix}.msg_hb_head"))
        params.update(self.msg_sep.parameters(f"{prefix}.msg_sep"))
        params.update(self.msg_sep_head.parameters(f"{prefix}.msg_sep_head"))
        params.update(self.node.parameters(f"{prefix}.node"))
        params.update(self.out_head.parameters(f"{prefix}.out_head"))
        return params

    def buffers(self, prefix: str = "dec") -> dict:
        return {}


def edge_terms(params: DecoderParams, edge_onehots: T.Tensor, idx: PairIndex) -> tuple:
    """The rollout-fixed inputs of `step_flat`: the hb and sep edge columns
    [B*E, 1] and the summed head biases [B*N, msg_dim]."""
    a_hb, a_sep = T.cols(edge_onehots, 1, 2), T.cols(edge_onehots, 2, 3)
    deg_hb, deg_sep = (T.segment_sum_rows(a, idx.n_nodes - 1) for a in (a_hb, a_sep))
    bias = T.add(T.mul(deg_hb, params.msg_hb_head.b), T.mul(deg_sep, params.msg_sep_head.b))
    return a_hb, a_sep, bias


def step_flat(
    params: DecoderParams,
    positions: T.Tensor,
    terms: tuple,
    idx: PairIndex,
) -> T.Tensor:
    """One transition on flattened rows: [B*N, D] -> [B*N, D]; `terms` from `edge_terms`."""
    a_hb, a_sep, bias = terms
    group = idx.n_nodes - 1
    recv = T.repeat_rows(positions, group)
    send = T.permute_rows(recv, idx.sigma, idx.sigma)
    pair = T.concat([send, recv], axis=1)
    h_hb = T.segment_sum_rows(T.mul(params.msg_hb.forward(pair), a_hb), group)
    h_sep = T.segment_sum_rows(T.mul(params.msg_sep.forward(pair), a_sep), group)
    agg = T.matmul(h_hb, params.msg_hb_head.w)
    agg = T.add(T.add(agg, T.matmul(h_sep, params.msg_sep_head.w)), bias)
    delta = params.out_head.forward(params.node.forward(agg))
    return T.add(positions, delta)


def step(params: DecoderParams, r_t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Predicted mean state [N, D] after one transition.

    `edges` is an [N, N, 3] array of (relaxed) one-hot rows with
    sender-first indexing; the diagonal is ignored.
    """
    if r_t.ndim != 2:
        raise DimensionError(f"expected [N, D] positions, got {r_t.shape}")
    n = r_t.shape[0]
    if edges.shape != (n, n, 3):
        raise DimensionError(f"expected [N, N, 3] edges, got {edges.shape}")
    idx = pair_index(n)
    flat_edges = idx.from_matrix(edges)
    with T.no_grad():
        mu = step_flat(params, T.Tensor(r_t), edge_terms(params, T.Tensor(flat_edges), idx), idx)
    T.assert_finite(mu.data, "decoder step")
    return mu.data


def rollout_train(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: T.Tensor,
    k: int,
    idx: PairIndex,
) -> list:
    """Differentiable k-step scheduled rollout over a window batch.

    Feeds its own mean prediction for k consecutive steps, then resets
    to the ground-truth step, repeating until the window is exhausted.
    Returns the T-1 predicted rows [B*N, D] in time order.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    b, n, t, d = windows.shape
    preds = []
    terms = edge_terms(params, edge_onehots, idx)
    current = T.Tensor(windows[:, :, 0, :].reshape(b * n, d))
    since_reset = 0
    for step_i in range(1, t):
        mu = step_flat(params, current, terms, idx)
        preds.append(mu)
        since_reset += 1
        if since_reset >= k and step_i < t - 1:
            current = T.Tensor(windows[:, :, step_i, :].reshape(b * n, d))
            since_reset = 0
        else:
            current = mu
    return preds


def rollout_eval(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: np.ndarray,
    idx: PairIndex,
) -> np.ndarray:
    """Pure self-rollout from the first step; returns [B, N, T-1, D]."""
    b, n, t, d = windows.shape
    with T.no_grad():
        current = T.Tensor(windows[:, :, 0, :].reshape(b * n, d))
        terms = edge_terms(params, T.Tensor(edge_onehots), idx)
        preds = np.empty((t - 1, b * n, d))
        for step_i in range(t - 1):
            current = step_flat(params, current, terms, idx)
            preds[step_i] = current.data
    T.assert_finite(preds, "decoder rollout")
    return preds.transpose(1, 0, 2).reshape(b, n, t - 1, d)


def rollout(
    params: DecoderParams,
    r_1: np.ndarray,
    edges: np.ndarray,
    k: int,
    teacher: np.ndarray | None = None,
    n_steps: int | None = None,
) -> np.ndarray:
    """Single-sample rollout; returns the predicted trajectory [N, steps, D].

    With a teacher trajectory [N, T, D] the schedule reintroduces the
    ground-truth state every k predictions (training regime) and T-1
    steps are predicted. Without one the model feeds itself from r_1
    for `n_steps` transitions (evaluation regime).
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n, d = r_1.shape
    idx = pair_index(n)
    flat_edges = idx.from_matrix(edges)
    if teacher is None:
        if n_steps is None or n_steps < 1:
            raise ParameterError("self-rollout requires n_steps >= 1")
        fake = np.zeros((1, n, n_steps + 1, d))
        fake[:, :, 0, :] = r_1
        return rollout_eval(params, fake, flat_edges, idx)[0]
    windows = teacher[None, ...]
    with T.no_grad():
        preds = rollout_train(params, windows, T.Tensor(flat_edges), k, idx)
    t = teacher.shape[1]
    out = np.stack([p.data for p in preds], axis=1).reshape(n, t - 1, -1)
    return out
