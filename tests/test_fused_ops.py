"""Fused tape nodes and in-place paths against the unfused composition,
bit for bit.

The encoder's forward (`encode_logits`, one node in training) and the
decoder's `step_flat` each replace a chain of ops, and the eval-mode
batch norm (`BatchNorm.normalize`) a chain of array expressions. The
references below are that chain written in plain numpy, with the
two-branch np.where activations, in the order the unfused ops evaluated
it. Outputs, running statistics and every gradient must agree exactly,
including at inputs of exactly +0.0 and -0.0. Eval mode records nothing,
so only its outputs are checked.
"""

import numpy as np
import pytest

from hbrca import layers
from hbrca import tensor as T
from hbrca.decoder import DecoderParams, step_flat
from hbrca.encoder import EncoderParams, encode_logits
from hbrca.errors import ParameterError
from hbrca.graph import pair_index
from hbrca.layers import BN_EPS, BN_MOMENTUM, BatchNorm
from hbrca.model import _CHUNK, ModelParams, encode_windows
from hbrca.tensor import Tensor

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
    """Outside `no_grad`, with every parameter on the tape: the eval pass
    records nothing, leaves the windows as they were and gives the bits
    of the unfused composition."""
    t, d = 3, 2
    params = _encoder(rng, t * d, hidden=16)
    windows = _with_signed_zeros(rng.normal(size=(batch, n, t, d)), rng)
    before = windows.copy()
    got = encode_logits(params, windows, training=False)
    assert _same_bits(got.data, encoder_eval_ref(params, windows))
    assert _same_bits(windows, before)
    assert not got.requires_grad and got._parents == () and got._backward is None
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
    T.add(T.tsum(T.mul(logits, g1)), T.tsum(T.mul(logits, g2))).backward()

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
    assert _same_bits(evaluated.data, training.data)


def test_encoder_training_no_grad_gives_the_same_bits_and_records_nothing(rng):
    """The running statistics move on in both: no_grad only stops recording."""
    params, windows = _training_case(rng, n=4, batch=3)
    before = {k: v.copy() for k, v in params.buffers().items()}
    recorded = encode_logits(params, windows, training=True)
    after = {k: v.copy() for k, v in params.buffers().items()}
    for key, buf in params.buffers().items():
        buf[...] = before[key]
    with T.no_grad():
        bare = encode_logits(params, windows, training=True)
    assert recorded._parents and recorded._backward is not None
    assert bare._parents == () and bare._backward is None and not bare.requires_grad
    assert _same_bits(bare.data, recorded.data)
    assert all(_same_bits(v, after[k]) for k, v in params.buffers().items())
    assert not all(_same_bits(v, before[k]) for k, v in after.items())


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


def _decoder_case(rng, b=2, n=4, d=3):
    dec = DecoderParams.create(rng, d, hidden=5, msg_dim=4)
    # the message heads' biases enter the step only through `bias`
    params = {k.removeprefix("dec."): t for k, t in dec.parameters().items()
              if k.removeprefix("dec.") not in {f"{head}.b" for head in HEADS}}
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
    rows = b * n * (n - 1)
    edges = rng.dirichlet([1.0, 1.0, 1.0], size=rows)
    edges[::3] = np.eye(3)[rng.integers(0, 3, size=edges[::3].shape[0])]
    a = {"msg_hb": edges[:, 1:2], "msg_sep": edges[:, 2:3]}
    bias = _with_signed_zeros(rng.normal(size=(b * n, 4)), rng)
    return dec, params, idx, a, bias


def test_decoder_step_rollout_matches_unfused_chain_bitwise(rng):
    """A k=2 schedule over T=4: x0 -> mu1 -> mu2, then a reset to the
    ground truth x2 -> mu3. mu1 takes three gradient contributions (the
    loss, step 2's residual, step 2's pair path), and the tape runs the
    steps in the order 2, 1, 3."""
    dec, params, idx, a, bias = _decoder_case(rng)
    group = idx.n_nodes - 1
    x0, x2 = (rng.normal(size=(bias.shape[0], 3)) for _ in range(2))
    gs = [rng.normal(size=x0.shape) for _ in range(3)]
    p = {k: t.data.copy() for k, t in params.items()}

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
    expect = {"x0": r1["residual"] + r1["pair_path"]}
    for name in [*params, "msg_hb", "msg_sep", "bias"]:
        expect[name] = (r2[name] + r1[name]) + r3[name]

    x0_t = Tensor(x0.copy(), requires_grad=True)
    terms = tuple(Tensor(v.copy(), requires_grad=True) for v in (a["msg_hb"], a["msg_sep"], bias))
    out1 = step_flat(dec, x0_t, terms, idx)
    out2 = step_flat(dec, out1, terms, idx)
    out3 = step_flat(dec, Tensor(x2.copy()), terms, idx)
    losses = [T.tsum(T.mul(o, g)) for o, g in zip((out1, out2, out3), gs)]
    T.add(T.add(losses[0], losses[1]), losses[2]).backward()

    for got, ref in zip((out1, out2, out3), (mu1, mu2, mu3)):
        assert _same_bits(got.data, ref)
    got = {"x0": x0_t.grad, "msg_hb": terms[0].grad, "msg_sep": terms[1].grad,
           "bias": terms[2].grad, **{k: t.grad for k, t in params.items()}}
    assert len(params) == 16  # all but the two message-head biases
    for name, ref in expect.items():
        assert _same_bits(got[name], ref), name


def test_decoder_step_no_grad_gives_the_same_bits_and_records_nothing(rng):
    dec, params, idx, a, bias = _decoder_case(rng)
    pos = Tensor(rng.normal(size=(bias.shape[0], 3)), requires_grad=True)
    terms = tuple(Tensor(v, requires_grad=True) for v in (a["msg_hb"], a["msg_sep"], bias))
    recorded = step_flat(dec, pos, terms, idx)
    with T.no_grad():
        bare = step_flat(dec, pos, terms, idx)
    assert recorded._parents and recorded._backward is not None
    assert bare._parents == () and bare._backward is None and not bare.requires_grad
    assert _same_bits(bare.data, recorded.data)
