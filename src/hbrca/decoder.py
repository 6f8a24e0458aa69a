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

A transition (`step_flat`) is one tape node. Its forward runs on plain
arrays: the [sender, receiver] pair rows, both message networks, the
edge-type weighting and per-receiver sums, the two message heads, the
node network, the output head and the residual. It keeps only what its
backward reads: the pair rows, each network's hidden and output
activations, the per-receiver sums and the aggregate. The perceptrons
are `tensor._perceptron`, the same math (one ReLU kernel, one slope rule)
as `tensor.mlp2`.

The backward is the op-by-op chain's backward written out. It adds into
each gradient with the same expressions, in the same order:
  1. the residual's term into the positions;
  2. the output head, then the node network;
  3. the aggregate's gradient into the bias term;
  4. for the hb and then the sep network: its head, its edge column, and
     the network itself; the two pair-row gradients are summed;
  5. the pair-path term into the positions.
Steps run in the tape's order, so gradients are bit for bit those of
the unfused chain. A chained step's positions still take three separate
additions: the loss term, then the next step's residual, then its pair
path.
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


def _net_forward(net: Mlp2, x: np.ndarray) -> tuple:
    """(hidden, out) of a ReLU network on plain arrays, layer 1 included."""
    act, _ = T._activation(net.activation)
    hidden, out = T._perceptron(x @ net.w1.data + net.b1.data, net.w2.data, net.b2.data, act)
    T.assert_finite(out, "mlp2 output")
    return hidden, out


def _affine_backward(g: np.ndarray, x: np.ndarray, w: T.Tensor, b: T.Tensor | None) -> None:
    """Adds the gradients of x @ w (+ b) under upstream gradient g."""
    if b is not None and b.requires_grad:
        b._accumulate(g.sum(axis=0, keepdims=True), owned=True)
    if w.requires_grad:
        w._accumulate(x.T @ g, owned=True)


def _net_backward(net: Mlp2, x, hidden, out, g, x_grad: bool):
    """Backward of `_net_forward` (scales g in place); returns dL/dx or None."""
    _, slope = T._activation(net.activation)
    dh = T._perceptron_backward(g, hidden, out, net.w2, net.b2, slope)
    _affine_backward(dh, x, net.w1, net.b1)
    return dh @ net.w1.data.T if x_grad else None


def step_flat(
    params: DecoderParams,
    positions: T.Tensor,
    terms: tuple,
    idx: PairIndex,
) -> T.Tensor:
    """One transition on flattened rows: [B*N, D] -> [B*N, D]; `terms` from
    `edge_terms`. One tape node; see the module docstring."""
    a_hb, a_sep, bias = terms
    group = idx.n_nodes - 1
    nets = (params.msg_hb, params.msg_sep)
    heads = (params.msg_hb_head, params.msg_sep_head)
    weights = (a_hb, a_sep)
    recv = np.repeat(positions.data, group, axis=0)
    pair = np.concatenate([recv[idx.sigma], recv], axis=1)
    msgs = [_net_forward(net, pair) for net in nets]
    summed = [(out * a.data).reshape(-1, group, out.shape[1]).sum(axis=1)
              for (_, out), a in zip(msgs, weights)]
    agg = summed[0] @ heads[0].w.data
    agg = agg + summed[1] @ heads[1].w.data
    agg = agg + bias.data
    node_hidden, node_out = _net_forward(params.node, agg)
    out_w, out_b = params.out_head.w, params.out_head.b
    out_data = positions.data + (node_out @ out_w.data + out_b.data)

    def backward(g):
        if positions.requires_grad:
            positions._accumulate(g)
        _affine_backward(g, node_out, out_w, out_b)
        g_agg = _net_backward(params.node, agg, node_hidden, node_out, g @ out_w.data.T, True)
        if bias.requires_grad:
            bias._accumulate(g_agg)
        g_pair = None
        for net, head, a, (hidden, out), h in zip(nets, heads, weights, msgs, summed):
            _affine_backward(g_agg, h, head.w, None)
            g_rows = np.repeat(g_agg @ head.w.data.T, group, axis=0)
            if a.requires_grad:
                a._accumulate((g_rows * out).sum(axis=1, keepdims=True), owned=True)
            g_rows *= a.data
            d_pair = _net_backward(net, pair, hidden, out, g_rows, positions.requires_grad)
            if g_pair is None:
                g_pair = d_pair
            else:
                g_pair += d_pair
        if positions.requires_grad:
            d = positions.data.shape[1]
            g_recv = g_pair[:, d:] + g_pair[:, :d][idx.sigma]
            positions._accumulate(g_recv.reshape(-1, group, d).sum(axis=1), owned=True)

    parents = (positions, a_hb, a_sep, bias)
    for net in (*nets, params.node):
        parents += (net.w1, net.b1, net.w2, net.b2)
    parents += (heads[0].w, heads[1].w, out_w, out_b)
    return T._node(out_data, parents, backward)


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


def _rollout(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: T.Tensor,
    k: int,
    idx: PairIndex,
):
    """Yields the T-1 predicted rows [B*N, D] of a window batch in time order.

    Feeds its own mean prediction for k consecutive steps, then resets
    to the ground-truth step, repeating until the window is exhausted;
    k = T-1 never resets, which is the pure self-rollout.
    """
    b, n, t, d = windows.shape
    terms = edge_terms(params, edge_onehots, idx)
    current = T.Tensor(windows[:, :, 0, :].reshape(b * n, d))
    since_reset = 0
    for step_i in range(1, t):
        mu = step_flat(params, current, terms, idx)
        yield mu
        since_reset += 1
        if since_reset >= k and step_i < t - 1:
            current = T.Tensor(windows[:, :, step_i, :].reshape(b * n, d))
            since_reset = 0
        else:
            current = mu


def rollout_train(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: T.Tensor,
    k: int,
    idx: PairIndex,
) -> list:
    """Differentiable k-step scheduled rollout over a window batch
    (`_rollout`); returns the T-1 predicted rows [B*N, D] in time order."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return list(_rollout(params, windows, edge_onehots, k, idx))


def rollout_eval(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: np.ndarray,
    idx: PairIndex,
) -> np.ndarray:
    """Pure self-rollout from the first step; returns [B, N, T-1, D]."""
    b, n, t, d = windows.shape
    preds = np.empty((t - 1, b * n, d))
    steps = _rollout(params, windows, T.Tensor(edge_onehots), t - 1, idx)
    with T.no_grad():
        for step_i, mu in enumerate(steps):
            preds[step_i] = mu.data
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
