"""Fused tape nodes and in-place eval paths against the unfused
composition, bit for bit.

`tensor.mlp2`, `tensor.batchnorm_rows`, the decoder's `step_flat`, the
eval-mode batch norm `BatchNorm.eval_` and the encoder's eval pass
(`encode_logits(training=False)`) each replace a chain of ops. The
references below are that chain written in plain numpy, with the
two-branch np.where activations, in the order the unfused ops evaluated
it. Outputs and every gradient must agree exactly, including at inputs of
exactly +0.0 and -0.0. The eval paths record nothing, so only their
outputs are checked.
"""

import numpy as np
import pytest

from hbrca import tensor as T
from hbrca.decoder import DecoderParams, step_flat
from hbrca.encoder import EncoderParams, encode_logits
from hbrca.errors import ParameterError
from hbrca.graph import pair_index
from hbrca.layers import BN_EPS, BatchNorm
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


def mlp2_ref(pre, w2, b2, name, g):
    h, slope1 = _act_ref(name, pre)
    out, slope2 = _act_ref(name, h @ w2 + b2)
    dz = g * slope2
    grads = {"pre": (dz @ w2.T) * slope1, "w2": h.T @ dz,
             "b2": dz.sum(axis=0, keepdims=True)}
    return out, grads


def bn_train_ref(x, gamma, beta, eps, g):
    mean = x.mean(axis=0, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma + beta
    dxhat = g * gamma
    term = dxhat - dxhat.mean(axis=0, keepdims=True)
    term -= xhat * (dxhat * xhat).mean(axis=0, keepdims=True)
    grads = {"x": term * inv, "gamma": (g * xhat).sum(axis=0, keepdims=True),
             "beta": g.sum(axis=0, keepdims=True)}
    return out, grads


def bn_eval_ref(x, gamma, beta, mean, inv):
    return (x - mean) * inv * gamma + beta


def _with_signed_zeros(a, rng):
    """Overwrite about a quarter of the entries with +0.0 or -0.0."""
    a = a.copy()
    pick = rng.random(a.shape) < 0.25
    a[pick] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[pick]
    return a


def _inputs(rng, rows=37, n_hidden=6, n_out=5):
    pre = _with_signed_zeros(rng.normal(size=(rows, n_hidden)), rng)
    w2 = rng.normal(size=(n_hidden, n_out))
    b2 = rng.normal(size=(1, n_out))
    # columns 0 and 1 of layer 2's pre-activation are exact zeros
    w2[:, :2] = 0.0
    b2[0, 0], b2[0, 1] = 0.0, -0.0
    return pre, w2, b2


def _run(op, arrays, g):
    """Output and per-input gradients of op(*tensors) under upstream grad g."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    T.tsum(T.mul(out, g)).backward()
    return out.data, [t.grad for t in tensors]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_signed_zero_inputs_are_present(rng):
    pre, _, _ = _inputs(rng)
    assert np.any((pre == 0.0) & np.signbit(pre))
    assert np.any((pre == 0.0) & ~np.signbit(pre))


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


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_mlp2_matches_unfused_composition_bitwise(name, rng):
    pre, w2, b2 = _inputs(rng)
    g = rng.normal(size=(pre.shape[0], w2.shape[1]))
    ref_out, ref_grads = mlp2_ref(pre, w2, b2, name, g)
    out, (g_pre, g_w2, g_b2) = _run(lambda p, w, b: T.mlp2(p, w, b, name), (pre, w2, b2), g)
    assert _same_bits(out, ref_out)
    assert _same_bits(g_pre, ref_grads["pre"])
    assert _same_bits(g_w2, ref_grads["w2"])
    assert _same_bits(g_b2, ref_grads["b2"])


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_mlp2_gradients_accumulate_over_shared_inputs(name, rng):
    """Two consumers of one output, and `pre` used twice: the in-place
    backward must not disturb either sum."""
    pre, w2, b2 = _inputs(rng)
    g1 = rng.normal(size=(pre.shape[0], w2.shape[1]))
    g2 = rng.normal(size=g1.shape)
    _, ref1 = mlp2_ref(pre, w2, b2, name, g1 + g2)
    p, w, b = (Tensor(a.copy(), requires_grad=True) for a in (pre, w2, b2))
    out = T.mlp2(p, w, b, name)
    loss = T.add(T.tsum(T.mul(out, g1)), T.tsum(T.mul(out, g2)))
    loss = T.add(loss, T.tsum(p))
    loss.backward()
    assert _same_bits(w.grad, ref1["w2"])
    assert _same_bits(b.grad, ref1["b2"])
    assert _same_bits(p.grad, ref1["pre"] + 1.0)


def test_batchnorm_rows_matches_unfused_composition_bitwise(rng):
    x = _with_signed_zeros(rng.normal(loc=0.3, size=(41, 5)), rng)
    gamma = rng.normal(size=(1, 5))
    beta = rng.normal(size=(1, 5))
    g = rng.normal(size=x.shape)
    ref_out, ref_grads = bn_train_ref(x, gamma, beta, 1e-5, g)
    out, (g_x, g_gamma, g_beta) = _run(
        lambda a, c, d: T.batchnorm_rows(a, c, d, 1e-5)[0], (x, gamma, beta), g
    )
    assert _same_bits(out, ref_out)
    assert _same_bits(g_x, ref_grads["x"])
    assert _same_bits(g_gamma, ref_grads["gamma"])
    assert _same_bits(g_beta, ref_grads["beta"])


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
    assert bn.eval_(h) is h
    assert _same_bits(h, expect)


def _no_grad_cases(rng):
    pre, w2, b2 = _inputs(rng)
    x = rng.normal(size=(23, 5))
    gamma, beta = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
    cases = [(lambda p, w, b, n=name: T.mlp2(p, w, b, n), (pre, w2, b2)) for name in ACTIVATIONS]
    cases.append((lambda a, c, d: T.batchnorm_rows(a, c, d, 1e-5)[0], (x, gamma, beta)))
    return cases


def test_no_grad_records_nothing_and_gives_the_same_bits(rng):
    for op, arrays in _no_grad_cases(rng):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        recorded = op(*tensors)
        with T.no_grad():
            bare = op(*tensors)
        assert recorded._parents and recorded._backward is not None
        assert bare._parents == () and bare._backward is None
        assert not bare.requires_grad
        assert _same_bits(bare.data, recorded.data)
        for t, a in zip(tensors, arrays):
            assert _same_bits(t.data, a)  # inputs untouched


def test_mlp2_rejects_unknown_activation(rng):
    pre, w2, b2 = _inputs(rng)
    with pytest.raises(ParameterError):
        T.mlp2(Tensor(pre), Tensor(w2), Tensor(b2), "tanh")


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
