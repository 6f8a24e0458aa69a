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
is built once per rollout, on arrays (`edge_terms`). Results match the
per-pair form up to rounding in the last bits.

A transition has one forward (`_forward`) on plain arrays: the
[sender, receiver] pair rows, both message networks, the edge-type
weighting and per-receiver sums, the two message heads, the node
network, the output head and the residual. Evaluation (`step`,
`rollout`, `rollout_eval`) runs it directly and never touches the tape.
Training records the whole scheduled rollout as one tape node
(`rollout_train`) over the edge one-hots and the 18 decoder parameters;
it returns the T-1 predictions stacked [T-1, B*N, D]. Each transition in
it is a `step_flat`: `_forward` plus a backward closure on arrays, which
keeps only what it reads: the pair rows, each network's hidden and
output activations, the per-receiver sums and the aggregate. Each
network runs `Mlp2.run_rows` and `Mlp2.backward_rows`, the same code as
the encoder's networks. Both rollouts follow one k-step schedule
(`_schedule`).

Evaluation runs each message network only on the pairs whose weight for
its type is nonzero (`_type_rows`); a rollout's edges fix those rows for
every step. With hard edges a pair feeds one network or none, so the
networks see the hb plus the sep pairs instead of every pair twice. The
weighted messages are written into a zeroed buffer at their rows, and
the per-receiver sums add the same terms in the same order: the other
rows hold the 0.0 that their zero weight gave, so results are bit for
bit those of running every pair. Training runs both networks on every
pair: an edge weight's gradient reads its pair's message even where the
weight is 0, and relaxed weights can underflow to exactly 0.

The backward is the op-by-op chain's backward written out, with the
same expressions in the same order. One transition's backward adds
into the output head, then the node network, then for the hb and then
the sep network its head and the network itself; it returns the
gradients of its two edge columns and of the bias term (the
aggregate's), and its pair path's gradient at the positions, where the
two pair-row gradients are summed. The rollout adds these up, and it
runs its transitions in the order the op chain's tape did:
each truth-reset segment in time order, and the steps of a segment in
reverse (k=3 over T=5: 3, 2, 1, 4). A chained step's positions take
three separate additions: the loss term, then the next step's residual,
then its pair path. Each edge column's gradient sums the steps in that
order and then adds the bias term's degree path; the edges' gradient is
the two zero-padded columns added. So the gradients are the unfused
chain's bit for bit.
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


def edge_terms(edge_onehots: np.ndarray, b_hb: np.ndarray, b_sep: np.ndarray,
               idx: PairIndex) -> tuple:
    """The rollout-fixed inputs of a transition, on arrays: ((hb edge column,
    sep edge column) [B*E, 1] each, the summed head biases [B*N, msg_dim]),
    and the two columns' per-receiver sums [B*N, 1], which the bias term's
    backward reads (`b_hb`, `b_sep`: the message heads' biases)."""
    a_hb, a_sep = edge_onehots[:, 1:2].copy(), edge_onehots[:, 2:3].copy()
    deg_hb, deg_sep = (a.reshape(-1, idx.n_nodes - 1, 1).sum(axis=1) for a in (a_hb, a_sep))
    return (a_hb, a_sep, deg_hb * b_hb + deg_sep * b_sep), (deg_hb, deg_sep)


def _forward(params: DecoderParams, positions: np.ndarray, a_hb: np.ndarray,
             a_sep: np.ndarray, bias: np.ndarray, idx: PairIndex, rows=None) -> tuple:
    """One transition on plain arrays, [B*N, D] -> [B*N, D], from the
    arrays of `edge_terms`; returns the next positions and what the
    backward of `step_flat` reads. With `rows` (evaluation, per network
    from `_type_rows`) each message network runs on its rows only, whose
    weights `a_hb` and `a_sep` then hold; without, both run on every pair."""
    group = idx.n_nodes - 1
    nets = (params.msg_hb, params.msg_sep)
    # the decoder's networks have no batch norm, so `training` changes nothing
    if rows is None:
        recv = np.repeat(positions, group, axis=0)
        pair = np.concatenate([recv[idx.sigma], recv], axis=1)
        msgs = [net.run_rows(pair, training=True) for net in nets]
        weighted = [out * a for (out, _), a in zip(msgs, (a_hb, a_sep))]
    else:
        pair, msgs, weighted = None, None, []
        for net, a, (sel, nodes, buf) in zip(nets, (a_hb, a_sep), rows):
            out, _ = net.run_rows(positions[nodes].reshape(len(sel), net.n_in), training=True)
            out *= a
            buf[sel] = out
            weighted.append(buf)
    summed = [w.reshape(-1, group, w.shape[1]).sum(axis=1) for w in weighted]
    agg = summed[0] @ params.msg_hb_head.w.data
    agg = agg + summed[1] @ params.msg_sep_head.w.data
    agg = agg + bias
    node_out, node_saved = params.node.run_rows(agg, training=True)
    out = positions + (node_out @ params.out_head.w.data + params.out_head.b.data)
    return out, (pair, msgs, summed, agg, node_out, node_saved)


def _type_rows(net: Mlp2, a: np.ndarray, idx: PairIndex) -> tuple:
    """One message network's rows in evaluation: the pair rows whose weight
    in the edge column `a` [B*E, 1] is nonzero. Returns their weights and
    (rows, [sender, receiver] node rows, zeroed [B*E, hidden] buffer).

    A lone row gets a zero-weight neighbour: numpy runs a one-row product
    as a matrix-vector product, whose bits differ from the full GEMM's."""
    sel = np.flatnonzero(a[:, 0])
    if len(sel) == 1:
        sel = np.append(sel, (sel[0] + 1) % len(a))
    nodes = np.stack([idx.sender_rows[sel], sel // (idx.n_nodes - 1)], axis=1)
    return a[sel], (sel, nodes, np.zeros((len(a), net.w2.shape[1])))


def step_flat(params: DecoderParams, positions: np.ndarray, terms: tuple,
              idx: PairIndex) -> tuple:
    """One training transition on arrays: `_forward` on every pair, and its
    backward (`terms` from `edge_terms`). Returns (next positions,
    backward). backward(g, chained) adds the transition's parameter
    gradients under the output gradient `g` and returns the gradients of
    the three terms, and, when `chained`, the pair path's gradient at
    `positions` (else None); the residual's is `g` itself."""
    a_hb, a_sep, bias = terms
    group = idx.n_nodes - 1
    nets = (params.msg_hb, params.msg_sep)
    heads = (params.msg_hb_head, params.msg_sep_head)
    out, (pair, msgs, summed, agg, node_out, node_saved) = _forward(
        params, positions, a_hb, a_sep, bias, idx)
    out_w, out_b = params.out_head.w, params.out_head.b

    def backward(g, chained):
        T._affine_backward(g, node_out, out_w, out_b)
        g_agg = params.node.backward_rows(g @ out_w.data.T, agg, node_saved)
        g_cols, g_pair = [], None
        for net, head, a, (msg, saved), h in zip(nets, heads, (a_hb, a_sep), msgs, summed):
            T._affine_backward(g_agg, h, head.w, None)
            g_rows = np.repeat(g_agg @ head.w.data.T, group, axis=0)
            g_cols.append((g_rows * msg).sum(axis=1, keepdims=True))
            g_rows *= a
            d_pair = net.backward_rows(g_rows, pair, saved, chained)
            if g_pair is None:
                g_pair = d_pair
            else:
                g_pair += d_pair
        if not chained:
            return (*g_cols, g_agg), None
        d = positions.shape[1]
        g_recv = g_pair[:, d:] + g_pair[:, :d][idx.sigma]
        return (*g_cols, g_agg), g_recv.reshape(-1, group, d).sum(axis=1)

    return out, backward


def step(params: DecoderParams, r_t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Predicted mean state [N, D] after one transition.

    `edges` is an [N, N, 3] array of (relaxed) one-hot rows with
    sender-first indexing; the diagonal is ignored.
    """
    return rollout(params, r_t, edges, 1, n_steps=1)[:, 0]


def _schedule(windows: np.ndarray, k: int):
    """The k-step schedule over a window batch: for each of the T-1
    transitions in time order, the ground-truth rows [B*N, D] it starts
    from, or None where it starts from the previous prediction.

    The truth enters at the first step and then after every k
    predictions; k >= T-1 never resets, which is the pure self-rollout.
    """
    b, n, t, d = windows.shape
    for step_i in range(t - 1):
        yield windows[:, :, step_i, :].reshape(b * n, d) if step_i % k == 0 else None


def rollout_train(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: T.Tensor,
    k: int,
    idx: PairIndex,
) -> T.Tensor:
    """Differentiable k-step scheduled rollout over a window batch
    (`_schedule`, one `step_flat` per transition), as one tape node over
    the edge one-hots and the decoder's parameters; returns the T-1
    predicted rows, stacked in time order [T-1, B*N, D]."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    b, n, t, d = windows.shape
    group = idx.n_nodes - 1
    b_hb, b_sep = params.msg_hb_head.b, params.msg_sep_head.b
    terms, degrees = edge_terms(edge_onehots.data, b_hb.data, b_sep.data, idx)
    preds = np.empty((t - 1, b * n, d))
    backwards, starts = [], []
    for step_i, truth in enumerate(_schedule(windows, k)):
        if truth is not None:
            starts.append(step_i)
        preds[step_i], back = step_flat(
            params, preds[step_i - 1] if truth is None else truth, terms, idx)
        backwards.append(back)

    def backward(g):
        g_terms = None
        for lo, hi in zip(starts, starts[1:] + [t - 1]):
            for step_i in range(hi - 1, lo - 1, -1):
                chained = step_i > lo
                step_terms, pair_path = backwards[step_i](g[step_i], chained)
                # drop the step's activations now, as the unfused tape did
                backwards[step_i] = None
                if g_terms is None:
                    g_terms = step_terms
                else:
                    for g_term, step_term in zip(g_terms, step_terms):
                        g_term += step_term
                if chained:
                    g[step_i - 1] += g[step_i]
                    g[step_i - 1] += pair_path
        g_hb, g_sep, g_bias = g_terms
        for g_a, head_b, deg in ((g_hb, b_hb, degrees[0]), (g_sep, b_sep, degrees[1])):
            g_deg = (g_bias * head_b.data).sum(axis=1, keepdims=True)
            head_b._accumulate((g_bias * deg).sum(axis=0, keepdims=True), owned=True)
            g_a += np.repeat(g_deg, group, axis=0)
        g_edges = np.zeros_like(edge_onehots.data)
        g_edges[:, 1:2] = g_hb
        g_edges[:, 2:3] = g_sep
        # the chain added two zero-padded columns, which turns -0.0 into +0.0
        g_edges += 0.0
        edge_onehots._accumulate(g_edges, owned=True)

    return T.node(preds, (edge_onehots, *params.parameters().values()), backward)


def _rollout_arrays(params: DecoderParams, windows: np.ndarray, edge_onehots: np.ndarray,
                    k: int, idx: PairIndex):
    """`rollout_train`'s schedule on plain arrays (`_forward`); yields the
    T-1 predicted rows [B*N, D] in time order."""
    b_hb, b_sep = params.msg_hb_head.b.data, params.msg_sep_head.b.data
    (a_hb, a_sep, bias), _ = edge_terms(edge_onehots, b_hb, b_sep, idx)
    (w_hb, rows_hb), (w_sep, rows_sep) = (
        _type_rows(params.msg_hb, a_hb, idx), _type_rows(params.msg_sep, a_sep, idx))
    mu = None
    for truth in _schedule(windows, k):
        # keep only the positions: holding a step's activations through the
        # next step made predict-long's eval rollout about 10 % slower
        mu = _forward(params, mu if truth is None else truth, w_hb, w_sep, bias, idx,
                      (rows_hb, rows_sep))[0]
        yield mu


def rollout_eval(
    params: DecoderParams,
    windows: np.ndarray,
    edge_onehots: np.ndarray,
    idx: PairIndex,
) -> np.ndarray:
    """Pure self-rollout from the first step; returns [B, N, T-1, D]."""
    b, n, t, d = windows.shape
    preds = np.empty((t - 1, b * n, d))
    for step_i, mu in enumerate(_rollout_arrays(params, windows, edge_onehots, t - 1, idx)):
        preds[step_i] = mu
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
    if r_1.ndim != 2:
        raise DimensionError(f"expected [N, D] positions, got {r_1.shape}")
    n, d = r_1.shape
    if edges.shape != (n, n, 3):
        raise DimensionError(f"expected [N, N, 3] edges, got {edges.shape}")
    idx = pair_index(n)
    flat_edges = idx.from_matrix(edges)
    if teacher is None:
        if n_steps is None or n_steps < 1:
            raise ParameterError("self-rollout requires n_steps >= 1")
        fake = np.zeros((1, n, n_steps + 1, d))
        fake[:, :, 0, :] = r_1
        return rollout_eval(params, fake, flat_edges, idx)[0]
    if teacher.ndim != 3 or teacher.shape[0] != n or teacher.shape[1] < 2 or teacher.shape[2] != d:
        raise DimensionError(f"expected an [{n}, T >= 2, {d}] teacher, got {teacher.shape}")
    if not np.array_equal(r_1, teacher[:, 0]):
        raise ParameterError("r_1 must be the teacher's first state")
    preds = list(_rollout_arrays(params, teacher[None, ...], flat_edges, k, idx))
    return np.stack(preds, axis=1).reshape(n, teacher.shape[1] - 1, -1)
