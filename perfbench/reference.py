"""Plain-numpy reference of the model's eval-mode forward pass.

Written from the architecture alone (two rounds of node/edge message
passing in the encoder; per-edge-type message networks with a skip
connection in the decoder), it shares no code with hbrca: it reads the
trained parameters by name and recomputes

  * the encoder posterior over (none, hb, sep) for every ordered pair,
  * the decoder's self-rollout from step 0 under given hard edge types.

Pairs are ordered receiver-major (receiver j ascending, then sender i
ascending, i != j), the layout hbrca documents for its flat edge rows.
The comparison tolerance allows sums taken in another order (such as a
factorised first layer of the pair networks) but not a changed
parameter.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
BN_EPS = 1e-5


def pair_lists(n: int):
    """(senders, receivers) of the n(n-1) ordered pairs, receiver-major."""
    senders = [i for j in range(n) for i in range(n) if i != j]
    receivers = [j for j in range(n) for i in range(n) if i != j]
    return np.array(senders), np.array(receivers)


def _elu(x):
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def _relu(x):
    return np.maximum(x, 0.0)


def _mlp(p, prefix, x, act, bn_buffers=None):
    h = act(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"])
    h = act(h @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"])
    if bn_buffers is not None:
        mean = bn_buffers[f"{prefix}.bn.running_mean"]
        var = bn_buffers[f"{prefix}.bn.running_var"]
        h = (h - mean) / np.sqrt(var + BN_EPS) * p[f"{prefix}.bn.gamma"] + p[f"{prefix}.bn.beta"]
    return h


def _pairs(node_h, n):
    """[B, N, F] node rows -> [B, E, 2F] rows of [sender, receiver]."""
    s, r = pair_lists(n)
    return np.concatenate([node_h[:, s], node_h[:, r]], axis=-1)


def _incoming_sum(edge_h, n):
    """[B, E, F] -> [B, N, F]: sum over each receiver's incoming pairs."""
    _, r = pair_lists(n)
    out = np.zeros((edge_h.shape[0], n, edge_h.shape[2]))
    for j in range(n):
        out[:, j] = edge_h[:, r == j].sum(axis=1)
    return out


def posterior(params: dict, buffers: dict, windows: np.ndarray) -> np.ndarray:
    """Edge-type probabilities [B, E, 3] for windows [B, N, T, D]."""
    b, n, t, d = windows.shape
    x = windows.reshape(b, n, t * d)
    node_h = _mlp(params, "enc.embed", x, _elu, buffers)
    edge_h = _mlp(params, "enc.edge1", _pairs(node_h, n), _elu, buffers)
    node_h2 = _mlp(params, "enc.node1", _incoming_sum(edge_h, n), _elu, buffers)
    edge_h2 = _mlp(params, "enc.edge2", _pairs(node_h2, n), _elu, buffers)
    logits = edge_h2 @ params["enc.out.w"] + params["enc.out.b"]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def rollout(params: dict, windows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Self-rollout from step 0 under hard edges [B, E, 3]; [B, N, T-1, D]."""
    b, n, t, d = windows.shape
    current = windows[:, :, 0, :]
    out = np.empty((b, n, t - 1, d))
    for step in range(t - 1):
        pairs = _pairs(current, n)
        m_hb = _mlp(params, "dec.msg_hb", pairs, _relu) @ params["dec.msg_hb_head.w"] \
            + params["dec.msg_hb_head.b"]
        m_sep = _mlp(params, "dec.msg_sep", pairs, _relu) @ params["dec.msg_sep_head.w"] \
            + params["dec.msg_sep_head.b"]
        messages = m_hb * edges[..., 1:2] + m_sep * edges[..., 2:3]
        agg = _incoming_sum(messages, n)
        delta = _mlp(params, "dec.node", agg, _relu) @ params["dec.out_head.w"] \
            + params["dec.out_head.b"]
        current = current + delta
        out[:, :, step] = current
    return out


def model_arrays(model) -> tuple:
    """(parameters, buffers) of an hbrca model as plain arrays by name."""
    params = {name: np.array(t.data) for name, t in model.parameters().items()}
    buffers = {name: np.array(a) for name, a in model.buffers().items()}
    return params, buffers


def mixed_edges(n_windows: int, n: int, seed: int) -> np.ndarray:
    """Hard one-hot edges [B, E, 3] with every edge type present."""
    e = n * (n - 1)
    types = np.random.default_rng(seed).integers(0, 3, size=(n_windows, e))
    types[:, :3] = [0, 1, 2]
    return np.eye(3)[types]


def close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= ATOL + RTOL * np.abs(b)))


def compare(hb, model, params, buffers, windows: np.ndarray, seed: int) -> list:
    """Failed comparisons between hbrca and the reference on `windows`.

    `hb` is the imported hbrca package; `params`/`buffers` are the arrays
    the reference uses (normally `model_arrays(model)`).
    """
    b, n = windows.shape[:2]
    failures = []
    probs, _ = hb.model.encode_windows(model, windows)
    if not close(posterior(params, buffers, windows), probs):
        failures.append("encoder posterior")
    edges = mixed_edges(b, n, seed)
    program = hb.decoder.rollout_eval(
        model.decoder, windows, edges.reshape(-1, 3), hb.graph.pair_index(n, b)
    )
    if not close(rollout(params, windows, edges), program):
        failures.append("decoder rollout")
    return failures
