"""Fused tape nodes against the unfused composition, bit for bit.

`tensor.mlp2`, `tensor.batchnorm_rows` and `tensor.batchnorm_eval` each
replace a chain of elementwise ops. The references below are that chain
written in plain numpy, with the two-branch np.where activations, in the
order the unfused ops evaluated it. Outputs and every gradient must agree
exactly, including at inputs of exactly +0.0 and -0.0.
"""

import numpy as np
import pytest

from hbrca import tensor as T
from hbrca.errors import ParameterError
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


def bn_eval_ref(x, gamma, beta, mean, inv, g):
    xhat = (x - mean) * inv
    out = xhat * gamma + beta
    grads = {"x": g * gamma * inv, "gamma": (g * xhat).sum(axis=0, keepdims=True),
             "beta": g.sum(axis=0, keepdims=True)}
    return out, grads


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
    act, slope = T._ACTIVATIONS[name]
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
    gamma = rng.normal(size=(1, 5))
    beta = rng.normal(size=(1, 5))
    mean = rng.normal(size=(1, 5))
    inv = 1.0 / np.sqrt(rng.uniform(0.5, 2.0, size=(1, 5)) + 1e-5)
    g = rng.normal(size=x.shape)
    ref_out, ref_grads = bn_eval_ref(x, gamma, beta, mean, inv, g)
    out, (g_x, g_gamma, g_beta) = _run(
        lambda a, c, d: T.batchnorm_eval(a, c, d, mean, inv), (x, gamma, beta), g
    )
    assert _same_bits(out, ref_out)
    assert _same_bits(g_x, ref_grads["x"])
    assert _same_bits(g_gamma, ref_grads["gamma"])
    assert _same_bits(g_beta, ref_grads["beta"])


def _no_grad_cases(rng):
    pre, w2, b2 = _inputs(rng)
    x = rng.normal(size=(23, 5))
    gamma, beta = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
    mean, inv = rng.normal(size=(1, 5)), rng.uniform(0.5, 2.0, size=(1, 5))
    cases = [(lambda p, w, b, n=name: T.mlp2(p, w, b, n), (pre, w2, b2)) for name in ACTIVATIONS]
    cases.append((lambda a, c, d: T.batchnorm_rows(a, c, d, 1e-5)[0], (x, gamma, beta)))
    cases.append((lambda a, c, d: T.batchnorm_eval(a, c, d, mean, inv), (x, gamma, beta)))
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
