"""Fused tape nodes and in-place paths against the unfused composition,
bit for bit.

A training batch records four nodes: the encoder's forward
(`encode_logits`), the concrete Gumbel draw (`gumbel_softmax`), the
decoder's rollout (`rollout_train`, one `step_flat` per transition) and
the loss head (`composite_loss`). Each replaces a chain of ops, and the
eval-mode batch norm (`BatchNorm.normalize`) a chain of array
expressions. The references below are that chain written in plain
numpy, with the two-branch np.where activations, in the order the
unfused ops evaluated it and added up its gradients. Outputs, running
statistics and every gradient must agree exactly, including at inputs of
exactly +0.0 and -0.0. Eval mode records nothing, so only its outputs are
checked.
"""

import numpy as np
import pytest

from hbrca import layers, training
from hbrca import tensor as T
from hbrca.decoder import DecoderParams, rollout, rollout_train, step
from hbrca.encoder import (CATEGORICAL_HARD, CONCRETE, EncoderParams, encode, encode_logits,
                           sample_edges)
from hbrca.errors import ParameterError
from hbrca.graph import pair_index
from hbrca.layers import BN_EPS, BN_MOMENTUM, BatchNorm
from hbrca.model import _CHUNK, ModelParams, encode_windows, predict_windows
from hbrca.rng import gumbel
from hbrca.tensor import Tensor
from hbrca.training import GROUP_LASSO, L1, TrainConfig, composite_loss

from conftest import linear_loss

ACTIVATIONS = ("relu", "elu")


def _act_ref(name, z):
    """Activation and its slope, as the unfused ops computed them."""
    mask = z > 0.0
    if name == "relu":
        return np.where(mask, z, 0.0), mask
    e = np.expm1(np.minimum(z, 0.0))
    return np.where(mask, z, e), np.where(mask, 1.0, e + 1.0)


def perceptron_ref(pre, w2, b2, name):
    """act(act(pre) @ w2 + b2) and its backward: (out, backward(g) -> grads)."""
    h, slope1 = _act_ref(name, pre)
    out, slope2 = _act_ref(name, h @ w2 + b2)

    def backward(g):
        dz = g * slope2
        return {"pre": (dz @ w2.T) * slope1, "w2": h.T @ dz,
                "b2": dz.sum(axis=0, keepdims=True)}

    return out, backward


def bn_train_ref(x, gamma, beta, eps):
    """Batch norm on the batch's mean and biased variance:
    (out, mean, var, backward(g) -> grads)."""
    mean = x.mean(axis=0, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma + beta

    def backward(g):
        dxhat = g * gamma
        term = dxhat - dxhat.mean(axis=0, keepdims=True)
        term -= xhat * (dxhat * xhat).mean(axis=0, keepdims=True)
        return {"x": term * inv, "gamma": (g * xhat).sum(axis=0, keepdims=True),
                "beta": g.sum(axis=0, keepdims=True)}

    return out, mean, var, backward


def bn_eval_ref(x, gamma, beta, mean, inv):
    return (x - mean) * inv * gamma + beta


def _with_signed_zeros(a, rng):
    """Overwrite about a quarter of the entries with +0.0 or -0.0."""
    a = a.copy()
    pick = rng.random(a.shape) < 0.25
    a[pick] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[pick]
    return a


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_signed_zero_inputs_are_present(rng):
    a = _with_signed_zeros(rng.normal(size=(37, 6)), rng)
    assert np.any((a == 0.0) & np.signbit(a))
    assert np.any((a == 0.0) & ~np.signbit(a))


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_activation_kernels_match_where_form_bitwise(name):
    z = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 40.0, -800.0] * 7)
    act, slope = T._activation(name)
    ref_out, ref_slope = _act_ref(name, z)
    out = act(z)
    assert _same_bits(out, ref_out)
    assert _same_bits(slope(out), ref_slope)
    in_place = z.copy()
    assert act(in_place, out=in_place) is in_place
    assert _same_bits(in_place, ref_out)


def test_batchnorm_eval_matches_unfused_composition_bitwise(rng):
    x = _with_signed_zeros(rng.normal(loc=0.3, size=(41, 5)), rng)
    bn = BatchNorm.create(5)
    bn.gamma.data[...] = rng.normal(size=(1, 5))
    bn.beta.data[...] = rng.normal(size=(1, 5))
    bn.running_mean[...] = rng.normal(size=(1, 5))
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=(1, 5))
    inv = 1.0 / np.sqrt(bn.running_var + BN_EPS)
    expect = bn_eval_ref(x, bn.gamma.data, bn.beta.data, bn.running_mean, inv)
    h = x.copy()
    out, saved = bn.normalize(h, training=False)
    assert out is h and saved is None
    assert _same_bits(h, expect)


def test_unknown_activation_is_rejected():
    with pytest.raises(ParameterError):
        T._activation("tanh")


# -- the encoder's eval pass -------------------------------------------------------


def encoder_eval_ref(params, windows):
    """Eval-mode logits as the taped ops composed them: layer 1 per node,
    the sender half repeated and gathered by the transpose map, both
    halves added, np.where ELUs, (x - mean) * inv * gamma + beta."""
    b, n, t, d = windows.shape
    idx = pair_index(n, b)

    def mlp(m, pre):
        h, _ = _act_ref("elu", pre)
        out, _ = _act_ref("elu", h @ m.w2.data + m.b2.data)
        inv = 1.0 / np.sqrt(m.bn.running_var + BN_EPS)
        return bn_eval_ref(out, m.bn.gamma.data, m.bn.beta.data, m.bn.running_mean, inv)

    def pairs(m, node_h):
        half = node_h.shape[1]
        send = np.repeat(node_h @ m.w1.data[:half], n - 1, axis=0)[idx.sigma]
        recv = np.repeat(node_h @ m.w1.data[half:] + m.b1.data, n - 1, axis=0)
        return mlp(m, send + recv)

    x = windows.reshape(b * n, t * d)
    node_h = mlp(params.embed, x @ params.embed.w1.data + params.embed.b1.data)
    edge_h = pairs(params.edge1, node_h)
    agg = edge_h.reshape(b * n, n - 1, -1).sum(axis=1)
    node_h2 = mlp(params.node1, agg @ params.node1.w1.data + params.node1.b1.data)
    edge_h2 = pairs(params.edge2, node_h2)
    return edge_h2 @ params.out.w.data + params.out.b.data


def _encoder(rng, n_in, hidden):
    """Encoder with random batch-norm statistics and affine pairs."""
    params = EncoderParams.create(rng, n_in, hidden)
    for mlp in (params.embed, params.edge1, params.node1, params.edge2):
        mlp.bn.running_mean[...] = rng.normal(size=mlp.bn.running_mean.shape)
        mlp.bn.running_var[...] = rng.uniform(0.5, 2.0, size=mlp.bn.running_var.shape)
        mlp.bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=mlp.bn.gamma.shape)
        mlp.bn.beta.data[...] = rng.normal(size=mlp.bn.beta.shape)
    return params


@pytest.mark.parametrize("n,batch", [(2, 3), (5, 131)], ids=["N2", "N5-B131"])
def test_encoder_eval_matches_unfused_composition_bitwise(n, batch, rng):
    """With every parameter on the tape, the eval pass returns a plain
    array, leaves the windows as they were and gives the bits of the
    unfused composition."""
    t, d = 3, 2
    params = _encoder(rng, t * d, hidden=16)
    windows = _with_signed_zeros(rng.normal(size=(batch, n, t, d)), rng)
    before = windows.copy()
    got = encode_logits(params, windows, training=False)
    assert type(got) is np.ndarray
    assert _same_bits(got, encoder_eval_ref(params, windows))
    assert _same_bits(windows, before)
    assert all(p.grad is None for p in params.parameters().values())


def test_encode_windows_chunks_match_unfused_composition_bitwise(rng):
    """A batch that is not a multiple of the chunk: the last chunk is partial."""
    model = ModelParams.create(rng, 3, 2, enc_hidden=16, dec_hidden=8, msg_dim=8)
    model.encoder = _encoder(rng, 3 * 2, hidden=16)
    windows = rng.normal(size=(_CHUNK + 3, 5, 3, 2))
    _, logits = encode_windows(model, windows)
    for lo in (0, _CHUNK):
        expect = encoder_eval_ref(model.encoder, windows[lo:lo + _CHUNK])
        assert _same_bits(logits[lo:lo + _CHUNK].reshape(-1, 3), expect)


# -- the encoder's training node ---------------------------------------------------


def encoder_train_ref(p, windows):
    """Training-mode logits as the taped ops composed them, and that chain's
    backward: (logits, {network: (batch mean, biased variance)},
    backward(g) -> gradients by parameter name). `p` maps the encoder's
    parameter names, without the "enc." prefix, to arrays. Layer 1 runs
    per node; the sender half is repeated and gathered by the transpose
    map, and its backward gathers by the same map and sums each node's
    N-1 rows; each half of a pair network's w1 gets a zero-padded
    gradient, and the two are added."""
    b, n, t, d = windows.shape
    idx = pair_index(n, b)
    rows, group = b * n, n - 1
    stats = {}

    def net(name, pre):
        h, back_mlp = perceptron_ref(pre, p[f"{name}.w2"], p[f"{name}.b2"], "elu")
        out, mean, var, back_bn = bn_train_ref(h, p[f"{name}.bn.gamma"],
                                               p[f"{name}.bn.beta"], BN_EPS)
        stats[name] = (mean, var)

        def backward(g, grads):
            g_bn = back_bn(g)
            grads[f"{name}.bn.gamma"], grads[f"{name}.bn.beta"] = g_bn["gamma"], g_bn["beta"]
            g_mlp = back_mlp(g_bn["x"])
            grads[f"{name}.w2"], grads[f"{name}.b2"] = g_mlp["w2"], g_mlp["b2"]
            return g_mlp["pre"]

        return out, backward

    def node_net(name, x):
        w1 = p[f"{name}.w1"]
        out, back = net(name, x @ w1 + p[f"{name}.b1"])

        def backward(g, grads):
            g_pre = back(g, grads)
            grads[f"{name}.b1"] = g_pre.sum(axis=0, keepdims=True)
            grads[f"{name}.w1"] = x.T @ g_pre
            return g_pre @ w1.T

        return out, backward

    def pair_net(name, node_h):
        w1, half = p[f"{name}.w1"], node_h.shape[1]
        send = np.repeat(node_h @ w1[:half], group, axis=0)[idx.sigma]
        recv = np.repeat(node_h @ w1[half:] + p[f"{name}.b1"], group, axis=0)
        out, back = net(name, send + recv)

        def backward(g, grads):
            g_pre = back(g, grads)
            g_send = g_pre[idx.sigma].reshape(rows, group, -1).sum(axis=1)
            g_recv = g_pre.reshape(rows, group, -1).sum(axis=1)
            grads[f"{name}.b1"] = g_recv.sum(axis=0, keepdims=True)
            w_send, w_recv = np.zeros_like(w1), np.zeros_like(w1)
            w_send[:half] = node_h.T @ g_send
            w_recv[half:] = node_h.T @ g_recv
            grads[f"{name}.w1"] = w_send + w_recv
            return g_send @ w1[:half].T + g_recv @ w1[half:].T

        return out, backward

    x = windows.reshape(rows, t * d)
    node_h, back_embed = node_net("embed", x)
    edge_h, back_edge1 = pair_net("edge1", node_h)
    node_h2, back_node1 = node_net("node1", edge_h.reshape(rows, group, -1).sum(axis=1))
    edge_h2, back_edge2 = pair_net("edge2", node_h2)
    logits = edge_h2 @ p["out.w"] + p["out.b"]

    def backward(g):
        grads = {"out.b": g.sum(axis=0, keepdims=True), "out.w": edge_h2.T @ g}
        g_agg = back_node1(back_edge2(g @ p["out.w"].T, grads), grads)
        back_embed(back_edge1(np.repeat(g_agg, group, axis=0), grads), grads)
        return grads

    return logits, stats, backward


def _training_case(rng, n, batch, t=3, d=2):
    """A random encoder with exact zeros at two ELU inputs, and windows
    with signed zeros."""
    params = _encoder(rng, t * d, hidden=16)
    # embed's layer 1 and edge2's layer 2 each give a column of +0.0
    params.embed.w1.data[:, 0] = 0.0
    params.embed.b1.data[0, 0] = -0.0
    params.edge2.w2.data[:, 1] = 0.0
    params.edge2.b2.data[0, 1] = 0.0
    windows = _with_signed_zeros(rng.normal(size=(batch, n, t, d)), rng)
    return params, windows


@pytest.mark.parametrize("n,batch", [(2, 3), (5, 7)], ids=["N2", "N5"])
def test_encoder_training_node_matches_unfused_chain_bitwise(n, batch, rng):
    """The logits, the 8 running buffers after the call and all 26
    parameter gradients. The logits have two consumers, so the node's
    upstream gradient is a sum, as in the loss."""
    params, windows = _training_case(rng, n, batch)
    p = {k.removeprefix("enc."): t.data.copy() for k, t in params.parameters().items()}
    buffers = {k: v.copy() for k, v in params.buffers().items()}
    ref_logits, stats, ref_backward = encoder_train_ref(p, windows)
    g1, g2 = (rng.normal(size=ref_logits.shape) for _ in range(2))
    expect = ref_backward(g1 + g2)

    logits = encode_logits(params, windows, training=True)
    assert logits._parents == tuple(params.parameters().values())
    linear_loss((logits, g1), (logits, g2)).backward()

    assert _same_bits(logits.data, ref_logits)
    m = BN_MOMENTUM
    for key, got in params.buffers().items():
        name, stat = key.removeprefix("enc.").split(".bn.")
        batch_stat = stats[name][0 if stat == "running_mean" else 1]
        assert _same_bits(got, (1 - m) * buffers[key] + m * batch_stat), key
    got = {k.removeprefix("enc."): t.grad for k, t in params.parameters().items()}
    assert len(got) == 26 and len(params.buffers()) == 8
    assert set(got) == set(expect)
    for name, ref in expect.items():
        assert _same_bits(got[name], ref), name


def test_encoder_training_with_batch_statistics_matches_eval_bitwise(rng, monkeypatch):
    """With momentum 1 a training call leaves each network's batch mean and
    biased variance in its running buffers; eval mode then gives the
    training logits bit for bit."""
    params, windows = _training_case(rng, n=5, batch=7)
    monkeypatch.setattr(layers, "BN_MOMENTUM", 1.0)
    training = encode_logits(params, windows, training=True)
    _, stats, _ = encoder_train_ref(
        {k.removeprefix("enc."): t.data for k, t in params.parameters().items()}, windows)
    for name, (mean, var) in stats.items():
        bn = getattr(params, name).bn
        assert _same_bits(bn.running_mean, mean) and _same_bits(bn.running_var, var)
    evaluated = encode_logits(params, windows, training=False)
    assert _same_bits(evaluated, training.data)


# -- the decoder transition -------------------------------------------------------

MESSAGE_NETS = ("msg_hb", "msg_sep")
HEADS = ("msg_hb_head", "msg_sep_head")


def _net_ref(p, name, x):
    """Layer 1 and the ReLU perceptron as the unfused ops computed them:
    (hidden, out, slope 1, slope 2, the two ReLU inputs)."""
    z1 = x @ p[f"{name}.w1"] + p[f"{name}.b1"]
    hidden, slope1 = _act_ref("relu", z1)
    z2 = hidden @ p[f"{name}.w2"] + p[f"{name}.b2"]
    out, slope2 = _act_ref("relu", z2)
    return hidden, out, slope1, slope2, (z1, z2)


def _net_backward_ref(p, name, x, fwd, g, grads):
    hidden, out, slope1, slope2, _ = fwd
    dz = g * slope2
    grads[f"{name}.b2"] = dz.sum(axis=0, keepdims=True)
    grads[f"{name}.w2"] = hidden.T @ dz
    dh = (dz @ p[f"{name}.w2"].T) * slope1
    grads[f"{name}.b1"] = dh.sum(axis=0, keepdims=True)
    grads[f"{name}.w1"] = x.T @ dh
    return dh @ p[f"{name}.w1"].T


def step_ref(p, pos, a, bias, sigma, group):
    """The unfused transition: repeat, transpose gather, concatenation,
    two message networks weighted by their edge columns and summed per
    receiver, the linear heads, the node network, the output head and the
    residual. Returns (out, cache for `step_backward_ref`)."""
    recv = np.repeat(pos, group, axis=0)
    pair = np.concatenate([recv[sigma], recv], axis=1)
    fwd = {name: _net_ref(p, name, pair) for name in MESSAGE_NETS}
    summed = {name: (fwd[name][1] * a[name]).reshape(-1, group, fwd[name][1].shape[1]).sum(axis=1)
              for name in MESSAGE_NETS}
    agg = summed["msg_hb"] @ p["msg_hb_head.w"]
    agg = agg + summed["msg_sep"] @ p["msg_sep_head.w"]
    agg = agg + bias
    fwd["node"] = _net_ref(p, "node", agg)
    out = pos + (fwd["node"][1] @ p["out_head.w"] + p["out_head.b"])
    return out, (pos, pair, fwd, summed, agg)


def step_backward_ref(p, cache, g, sigma, group, a):
    """Gradients of one transition under upstream g, in the unfused tape's
    order; the positions get the residual g and then the pair-path term."""
    pos, pair, fwd, summed, agg = cache
    grads = {"residual": g, "out_head.b": g.sum(axis=0, keepdims=True),
             "out_head.w": fwd["node"][1].T @ g}
    g_agg = _net_backward_ref(p, "node", agg, fwd["node"], g @ p["out_head.w"].T, grads)
    grads["bias"] = g_agg
    d_pair = []
    for name, head in zip(MESSAGE_NETS, HEADS):
        grads[f"{head}.w"] = summed[name].T @ g_agg
        g_rows = np.repeat(g_agg @ p[f"{head}.w"].T, group, axis=0)
        grads[name] = (g_rows * fwd[name][1]).sum(axis=1, keepdims=True)
        d_pair.append(_net_backward_ref(p, name, pair, fwd[name], g_rows * a[name], grads))
    g_pair = d_pair[0] + d_pair[1]
    d = pos.shape[1]
    grads["pair_path"] = (g_pair[:, d:] + g_pair[:, :d][sigma]).reshape(-1, group, d).sum(axis=1)
    return grads


def _decoder_case(rng, b=2, n=4, d=3, t=4):
    dec = DecoderParams.create(rng, d, hidden=5, msg_dim=4)
    params = {k.removeprefix("dec."): t for k, t in dec.parameters().items()}
    # exact zeros at three ReLU inputs: a zero weight column and a zero bias.
    # x @ w + b then gives +0.0 whether b is +0.0 or -0.0 (the product's
    # zero is +0.0), so -0.0 cannot reach a ReLU here; the kernel test
    # above covers it.
    params["msg_hb.w1"].data[:, 0] = 0.0
    params["msg_hb.b1"].data[0, 0] = -0.0
    params["msg_sep.w2"].data[:, 1] = 0.0
    params["msg_sep.b2"].data[0, 1] = 0.0
    params["node.w1"].data[:, 2] = 0.0
    params["node.b1"].data[0, 2] = -0.0
    idx = pair_index(n, b)
    edges = rng.dirichlet([1.0, 1.0, 1.0], size=b * n * (n - 1))
    edges[::3] = np.eye(3)[rng.integers(0, 3, size=edges[::3].shape[0])]
    windows = _with_signed_zeros(rng.normal(size=(b, n, t, d)), rng)
    return dec, params, idx, edges, windows


def edge_terms_ref(p, edges, group):
    """The rollout-fixed terms as the unfused ops built them: the two edge
    columns, their per-receiver sums, and the degree-weighted head biases."""
    a = {"msg_hb": edges[:, 1:2].copy(), "msg_sep": edges[:, 2:3].copy()}
    deg = {name: a[name].reshape(-1, group, 1).sum(axis=1) for name in MESSAGE_NETS}
    bias = deg["msg_hb"] * p["msg_hb_head.b"] + deg["msg_sep"] * p["msg_sep_head.b"]
    return a, deg, bias


def test_decoder_rollout_node_matches_unfused_chain_bitwise(rng):
    """A k=2 schedule over T=4: x0 -> mu1 -> mu2, then a reset to the
    ground truth x2 -> mu3, as one `rollout_train` node over the edges and
    all 18 decoder parameters. mu1 takes three gradient contributions (the
    loss, step 2's residual, step 2's pair path), and the tape runs the
    steps in the order 2, 1, 3. Each edge column's gradient then adds its
    degree path, and the edges' gradient is the two zero-padded columns
    added."""
    dec, params, idx, edges, windows = _decoder_case(rng)
    b, n, t, d = windows.shape
    group = idx.n_nodes - 1
    x0, x2 = (windows[:, :, i, :].reshape(b * n, d) for i in (0, 2))
    gs = [rng.normal(size=x0.shape) for _ in range(3)]
    p = {k: t.data.copy() for k, t in params.items()}
    a, deg, bias = edge_terms_ref(p, edges, group)

    mu1, c1 = step_ref(p, x0, a, bias, idx.sigma, group)
    mu2, c2 = step_ref(p, mu1, a, bias, idx.sigma, group)
    mu3, c3 = step_ref(p, x2, a, bias, idx.sigma, group)
    for _, _, fwd, _, _ in (c1, c2, c3):
        zero_columns = (fwd["msg_hb"][4][0][:, 0], fwd["msg_sep"][4][1][:, 1],
                        fwd["node"][4][0][:, 2])
        assert all(np.all(z == 0.0) for z in zero_columns)
    r2 = step_backward_ref(p, c2, gs[1], idx.sigma, group, a)
    g_mu1 = gs[0] + r2["residual"]
    g_mu1 = g_mu1 + r2["pair_path"]
    r1 = step_backward_ref(p, c1, g_mu1, idx.sigma, group, a)
    r3 = step_backward_ref(p, c3, gs[2], idx.sigma, group, a)
    steps = {name: (r2[name] + r1[name]) + r3[name]
             for name in [*r1] if name not in ("residual", "pair_path")}
    expect = {name: g for name, g in steps.items() if name not in ("bias", *MESSAGE_NETS)}
    pads = []
    for name, head, col in zip(MESSAGE_NETS, HEADS, (1, 2)):
        g_deg = (steps["bias"] * p[f"{head}.b"]).sum(axis=1, keepdims=True)
        expect[f"{head}.b"] = (steps["bias"] * deg[name]).sum(axis=0, keepdims=True)
        pad = np.zeros_like(edges)
        pad[:, col:col + 1] = steps[name] + np.repeat(g_deg, group, axis=0)
        pads.append(pad)
    expect["edges"] = pads[0] + pads[1]

    edges_t = Tensor(edges.copy(), requires_grad=True)
    preds = rollout_train(dec, windows, edges_t, 2, idx)
    assert preds._parents == (edges_t, *dec.parameters().values())
    linear_loss((preds, np.stack(gs))).backward()

    assert _same_bits(preds.data, np.stack([mu1, mu2, mu3]))
    got = {"edges": edges_t.grad, **{k: t.grad for k, t in params.items()}}
    assert len(params) == 18
    assert set(got) == set(expect)
    for name, ref in expect.items():
        assert _same_bits(got[name], ref), name


# -- the Gumbel draw and the loss head ---------------------------------------------


def _softmax_ref(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward_ref(g, out):
    return out * (g - (g * out).sum(axis=1, keepdims=True))


def loss_head_ref(logits, preds, windows, config, noise, g_edges):
    """The Gumbel draw and the loss as the unfused ops computed them, and
    their backward in the tape's order, from the edges' gradient
    `g_edges`: (edges, parts, logits' gradient, predictions' gradient).
    Each broadcast of a scalar gradient is a full array, as the chain's
    sums passed it on."""
    b, n, t, d = windows.shape
    inv_b = 1.0 / b
    q = _softmax_ref(logits)
    s1 = np.log(q) - np.log(np.asarray(config.prior))
    kl = np.sum(q * s1) * inv_b
    edges = _softmax_ref((logits + noise) * (1.0 / config.tau))
    diffs, total_sq = [], None
    for i in range(t - 1):
        diffs.append(preds[i] - windows[:, :, i + 1, :].reshape(b * n, d))
        sq = np.sum(np.square(diffs[-1]))
        total_sq = sq if total_sq is None else total_sq + sq
    rec_scale = 1.0 / ((t - 1) * b * n * d)
    rec = total_sq * rec_scale
    q1, q2 = q[:, 1:2].copy(), q[:, 2:3].copy()
    if config.sparsity_mode == L1:
        s = q1 + q2
        sparse = np.sum(np.abs(s)) * inv_b
    else:
        s = np.square(q1) + np.square(q2)
        root = np.sqrt(s)
        sparse = np.sum(root) * inv_b
    total = (kl * config.lambda_kl + rec * config.lambda_rec) + sparse * config.lambda_sparse
    parts = {"kl": kl, "reconstruction": rec, "sparsity": sparse, "total": total}

    one = np.ones(())
    g_sum = np.full(q.shape, (one * config.lambda_kl) * inv_b)
    g_q = g_sum * s1
    g_q = g_q + (g_sum * q) / q
    g_s = np.full(s.shape, (one * config.lambda_sparse) * inv_b)
    if config.sparsity_mode == L1:
        g_q1 = g_q2 = g_s * np.sign(s)
    else:
        denom = 2.0 * root
        g_s = np.where(s > 0.0, g_s / np.where(denom > 0.0, denom, 1.0), 0.0)
        g_q1, g_q2 = 2.0 * g_s * q1, 2.0 * g_s * q2
    for col, g_col in ((1, g_q1), (2, g_q2)):
        pad = np.zeros_like(q)
        pad[:, col:col + 1] = g_col
        g_q = g_q + pad
    g_logits = (_softmax_backward_ref(g_edges, edges) * (1.0 / config.tau)
                + _softmax_backward_ref(g_q, q))
    g_rec = np.full(preds[0].shape, (one * config.lambda_rec) * rec_scale)
    g_preds = np.stack([2.0 * g_rec * diff for diff in diffs])
    return edges, parts, g_logits, g_preds


@pytest.mark.parametrize("mode", [L1, GROUP_LASSO])
def test_loss_head_and_gumbel_node_match_unfused_chain_bitwise(mode, rng, monkeypatch):
    """`composite_loss` with the encoder and the rollout replaced by nodes
    that hand over fixed logits and predictions: the Gumbel node's edges,
    the four loss parts, the logits' gradient (the KL, sparsity and Gumbel
    paths) and the predictions' gradient agree with the op chain bit for
    bit. A quarter of the windows and predictions are +0.0 or -0.0, some
    predictions equal their targets, and -0.0 predictions meet +0.0
    targets, so that errors of both zeros occur."""
    b, n, t, d = 3, 4, 5, 2
    windows = _with_signed_zeros(rng.normal(size=(b, n, t, d)), rng)
    preds0 = _with_signed_zeros(rng.normal(size=(t - 1, b * n, d)), rng)
    targets = windows[:, :, 1:, :].transpose(2, 0, 1, 3).reshape(preds0.shape)
    preds0[:, ::5] = targets[:, ::5]
    preds0[(targets == 0.0) & ~np.signbit(targets)] = -0.0
    logits0 = rng.normal(scale=3.0, size=(b * n * (n - 1), 3))
    noise = gumbel(rng, logits0.shape)
    g_edges = rng.normal(size=logits0.shape)
    config = TrainConfig(tau=0.7, prior=(0.6, 0.25, 0.15), sparsity_mode=mode,
                         lambda_kl=1.3, lambda_rec=0.7, lambda_sparse=0.05)
    model = ModelParams.create(rng, t, d, enc_hidden=8, dec_hidden=6, msg_dim=6)
    logits = Tensor(logits0.copy(), requires_grad=True)
    seen = {}

    def fixed_rollout(params, windows, edges, k, idx):
        seen["edges"] = edges.data.copy()

        def backward(g):
            seen["g_preds"] = g.copy()
            edges._accumulate(g_edges.copy(), owned=True)

        return T.node(preds0.copy(), (edges,), backward)

    monkeypatch.setattr(training, "encode_logits", lambda *args, **kwargs: logits)
    monkeypatch.setattr(training, "rollout_train", fixed_rollout)
    loss, parts = composite_loss(model, windows, config, noise=noise)
    loss.backward()

    edges, expect, g_logits, g_preds = loss_head_ref(logits0, preds0, windows, config,
                                                     noise, g_edges)
    assert np.any((g_preds == 0.0) & np.signbit(g_preds))
    assert np.any((g_preds == 0.0) & ~np.signbit(g_preds))
    assert _same_bits(seen["edges"], edges)
    assert set(parts) == set(expect)
    for name, value in expect.items():
        assert _same_bits(parts[name], value), name
    assert _same_bits(loss.data, expect["total"])
    assert _same_bits(logits.grad, g_logits)
    assert _same_bits(seen["g_preds"], g_preds)


# -- evaluation stays off the tape ------------------------------------------------


def test_evaluation_builds_no_tape_node(rng, monkeypatch):
    """Evaluation calls `T.node` nowhere but in a concrete `sample_edges`
    draw, a Gumbel node over plain logits that records nothing. A training
    batch then records exactly four nodes: the encoder, the Gumbel draw,
    the rollout and the loss head."""
    calls = []
    node = T.node

    def counting(data, parents, backward):
        out = node(data, parents, backward)
        calls.append(out.requires_grad)
        return out

    model = ModelParams.create(rng, 4, 2, enc_hidden=8, dec_hidden=6, msg_dim=6)
    windows = rng.normal(size=(3, 4, 4, 2))
    edges = np.eye(3)[rng.integers(0, 3, size=(4, 4))]
    first = windows[0, :, 0, :]
    monkeypatch.setattr(T, "node", counting)
    encode_windows(model, windows)
    predict_windows(model, windows, 0.5, 0)
    posterior = encode(model.encoder, windows[0])
    step(model.decoder, first, edges)
    rollout(model.decoder, first, edges, 2, teacher=windows[0])
    rollout(model.decoder, first, edges, 2, n_steps=5)
    sample_edges(posterior, 0.5, CATEGORICAL_HARD, rng)
    assert calls == []
    sample_edges(posterior, 0.5, CONCRETE, rng)
    assert calls == [False]
    composite_loss(model, windows, TrainConfig(k=2), rng=rng)
    assert calls == [False] + [True] * 4
