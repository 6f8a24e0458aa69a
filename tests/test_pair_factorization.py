"""Batched encoder logits and decoder step against the per-pair form.

The program never builds the [sender, receiver] concatenation for the
encoder's pair networks and applies the decoder's message heads after
the sum over incoming edges. This reference does neither shortcut: it
loops over every ordered pair of every sample in receiver-major order,
concatenates the two node rows and applies each layer as written in
the architecture, so a wrong batch offset in the pair gather or
swapped sender/receiver halves show up here.
"""

import numpy as np

from hbrca.decoder import DecoderParams, edge_terms, step_flat
from hbrca.encoder import EncoderParams, encode_logits
from hbrca.graph import pair_index
from hbrca.layers import BN_EPS

B, N = 3, 4
REL_TOL = 1e-12


def _pairs(node_h):
    """[B, N, F] -> [B*E, 2F] rows [sender, receiver], receiver-major."""
    return np.array([
        np.concatenate([node_h[b, i], node_h[b, j]])
        for b in range(node_h.shape[0]) for j in range(N) for i in range(N) if i != j
    ])


def _incoming(edge_h):
    """[B*E, F] -> [B*N, F]: per receiver, the sum over its N-1 senders."""
    return edge_h.reshape(-1, N - 1, edge_h.shape[1]).sum(axis=1)


def _elu(x):
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def _relu(x):
    return np.maximum(x, 0.0)


def _mlp(m, x, act, training=False):
    h = act(x @ m.w1.data + m.b1.data)
    h = act(h @ m.w2.data + m.b2.data)
    if m.bn is None:
        return h
    if training:
        mean = h.mean(axis=0, keepdims=True)
        var = ((h - mean) ** 2).mean(axis=0, keepdims=True)
    else:
        mean, var = m.bn.running_mean, m.bn.running_var
    return (h - mean) / np.sqrt(var + BN_EPS) * m.bn.gamma.data + m.bn.beta.data


def _encoder_reference(params, windows, training):
    x = windows.reshape(B * N, -1)
    node_h = _mlp(params.embed, x, _elu, training)
    edge_h = _mlp(params.edge1, _pairs(node_h.reshape(B, N, -1)), _elu, training)
    node_h2 = _mlp(params.node1, _incoming(edge_h), _elu, training)
    edge_h2 = _mlp(params.edge2, _pairs(node_h2.reshape(B, N, -1)), _elu, training)
    return edge_h2 @ params.out.w.data + params.out.b.data


def _decoder_reference(params, positions, edges):
    pair = _pairs(positions.reshape(B, N, -1))
    m_hb = _mlp(params.msg_hb, pair, _relu) @ params.msg_hb_head.w.data \
        + params.msg_hb_head.b.data
    m_sep = _mlp(params.msg_sep, pair, _relu) @ params.msg_sep_head.w.data \
        + params.msg_sep_head.b.data
    agg = _incoming(m_hb * edges[:, 1:2] + m_sep * edges[:, 2:3])
    delta = _mlp(params.node, agg, _relu) @ params.out_head.w.data + params.out_head.b.data
    return positions + delta


def _assert_close(got, expect):
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= REL_TOL * np.max(np.abs(expect))


def test_batched_forward_matches_per_pair_concat_form(rng):
    t, d = 3, 2
    params = EncoderParams.create(rng, t * d, hidden=8)
    for mlp in (params.embed, params.edge1, params.node1, params.edge2):
        mlp.bn.running_mean[...] = rng.normal(size=mlp.bn.running_mean.shape)
        mlp.bn.running_var[...] = rng.uniform(0.5, 2.0, size=mlp.bn.running_var.shape)
        mlp.bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=mlp.bn.gamma.shape)
        mlp.bn.beta.data[...] = rng.normal(size=mlp.bn.beta.shape)
    windows = rng.normal(size=(B, N, t, d))
    evaluated = encode_logits(params, windows, training=False)
    _assert_close(evaluated, _encoder_reference(params, windows, training=False))
    trained = encode_logits(params, windows, training=True)
    _assert_close(trained.data, _encoder_reference(params, windows, training=True))

    dec = DecoderParams.create(rng, d, hidden=5, msg_dim=4)
    idx = pair_index(N, B)
    positions = rng.normal(size=(B * N, d))
    edges = rng.dirichlet([1.0, 1.0, 1.0], size=B * N * (N - 1))
    terms, _ = edge_terms(edges, dec.msg_hb_head.b.data, dec.msg_sep_head.b.data, idx)
    got, _ = step_flat(dec, positions, terms, idx)
    _assert_close(got, _decoder_reference(dec, positions, edges))
