import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbrca import tensor as T
from hbrca import training
from hbrca.decoder import edge_terms
from hbrca.errors import AbsentGradientError, DimensionError
from hbrca.graph import pair_index
from hbrca.layers import gumbel_softmax
from hbrca.model import ModelParams
from hbrca.rng import gumbel
from hbrca.tensor import Tensor, collect_grads
from hbrca.training import GROUP_LASSO, TrainConfig, composite_loss

from conftest import central_difference, linear_loss


def _scaled(x, factor):
    """A node over x: factor * x, whose backward adds factor * g into x."""
    def backward(g):
        x._accumulate(factor * g, owned=True)

    return T.node(factor * x.data, (x,), backward)


def test_node_records_only_when_a_parent_needs_a_gradient():
    constant = Tensor(np.ones(3))
    out = _scaled(constant, 2.0)
    assert not out.requires_grad and out._parents == () and out._backward is None
    x = Tensor(np.ones(3), requires_grad=True)
    out = _scaled(x, 2.0)
    assert out.requires_grad and out._parents == (x,)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        _scaled(x, 2.0).backward()


def test_absent_gradient_error():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    linear_loss((x, np.full(3, 2.0))).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))
    with pytest.raises(AbsentGradientError):
        collect_grads({"x": x, "unused": unused})


def test_backward_releases_the_tape(rng):
    """A loss kept after backward() holds no tape: training would otherwise
    keep one step's activations alive through the next step's forward."""
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    g = rng.normal(size=(4, 3))
    loss = linear_loss((_scaled(x, 2.0), g))
    inner = weakref.ref(loss._parents[0].data)
    loss.backward()
    assert loss._parents == () and loss._backward is None
    assert inner() is None
    assert np.array_equal(x.grad, 2.0 * g)


def test_gradients_accumulate_across_uses(rng):
    """x feeds two nodes and the loss directly: its gradient is the sum of
    the three uses, each added once, after every node that uses x."""
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    g1, g2, g3 = (rng.normal(size=(2, 3)) for _ in range(3))
    linear_loss((_scaled(x, 3.0), g1), (_scaled(x, 0.5), g2), (x, g3)).backward()
    expect = 3.0 * g1 + 0.5 * g2 + g3
    assert np.allclose(x.grad, expect, rtol=0.0, atol=1e-14)


def test_composite_graph_matches_finite_differences(rng):
    """Nodes composed: the Gumbel node (a softmax and a 1/tau scale) feeds
    a scaling node, and the loss reads that node and the logits too, so
    the logits' gradient sums both paths."""
    x0 = rng.normal(size=(6, 3))
    noise = gumbel(rng, x0.shape)
    g1, g2 = rng.normal(size=(2, 6, 3))

    def build(arr):
        x = Tensor(arr, requires_grad=True)
        y = gumbel_softmax(x, 0.7, None, noise=noise)
        return linear_loss((_scaled(y, 3.0), g1), (x, g2)), x

    loss, x = build(x0.copy())
    loss.backward()
    fd = central_difference(lambda a: float(build(a)[0].data), x0.copy())
    assert np.max(np.abs(x.grad - fd)) < 1e-6


def test_broadcast_bias_gradient(rng):
    """`_affine_backward` sums the upstream gradient over the rows into a
    [1, k] bias broadcast across them, and forms the weight's gradient."""
    x0 = rng.normal(size=(5, 3))
    w0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(1, 4))
    w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
    T._affine_backward(2.0 * (x0 @ w0 + b0), x0, w, b)
    fd_b = central_difference(lambda a: float(np.sum((x0 @ w0 + a) ** 2)), b0.copy())
    fd_w = central_difference(lambda a: float(np.sum((x0 @ a + b0) ** 2)), w0.copy())
    assert b.grad.shape == (1, 4)
    assert np.max(np.abs(b.grad - fd_b)) < 1e-6
    assert np.max(np.abs(w.grad - fd_w)) < 1e-6


def head_loss(monkeypatch, model, windows, config, noise, logits0, preds0):
    """`composite_loss` with the encoder and the rollout replaced by nodes
    that hand over `logits0` and `preds0`, so that only the Gumbel draw and
    the loss head run. Returns (loss, parts, logits tensor, seen), where
    seen["preds"] is the predictions' gradient once backward() has run."""
    logits = Tensor(logits0, requires_grad=True)
    seen = {}

    def fixed_rollout(params, windows, edges, k, idx):
        def backward(g):
            seen["preds"] = g.copy()
            edges._accumulate(np.zeros_like(edges.data), owned=True)

        return T.node(preds0, (edges,), backward)

    monkeypatch.setattr(training, "encode_logits", lambda *args, **kwargs: logits)
    monkeypatch.setattr(training, "rollout_train", fixed_rollout)
    loss, parts = composite_loss(model, windows, config, noise=noise)
    return loss, parts, logits, seen


def test_squared_norm_gradient(rng, monkeypatch):
    """The reconstruction term is lambda_rec times the mean squared error,
    so the predictions take 2 * lambda_rec * (pred - target) / count, and
    central differences of the loss agree."""
    b, n, t, d = 2, 3, 4, 2
    windows = rng.normal(size=(b, n, t, d))
    logits0 = rng.normal(size=(b * n * (n - 1), 3))
    preds0 = rng.normal(size=(t - 1, b * n, d))
    noise = gumbel(rng, logits0.shape)
    config = TrainConfig(prior=(0.6, 0.2, 0.2), lambda_rec=0.7)
    model = ModelParams.create(rng, t, d, enc_hidden=8, dec_hidden=6, msg_dim=6)
    loss, _, _, seen = head_loss(monkeypatch, model, windows, config, noise, logits0, preds0)
    loss.backward()
    targets = windows[:, :, 1:, :].transpose(2, 0, 1, 3).reshape(preds0.shape)
    expect = 2.0 * config.lambda_rec * (preds0 - targets) / preds0.size
    assert np.allclose(seen["preds"], expect, rtol=1e-12, atol=0.0)

    def f(arr):
        return float(head_loss(monkeypatch, model, windows, config, noise, logits0, arr)[0].data)

    fd = central_difference(f, preds0.copy())
    assert np.max(np.abs(seen["preds"] - fd)) < 1e-6


def test_sqrt_subgradient_zero_at_zero(rng, monkeypatch):
    """Group lasso takes sqrt(q1^2 + q2^2) per pair. Where both causal
    probabilities are about 1e-170, their squares underflow to 0 and the
    root's subgradient is 0: those pairs' logits take no sparsity gradient
    (the same bits under any sparsity weight) and stay finite, while the
    other pairs' logits do take one."""
    b, n, t, d = 2, 3, 4, 2
    windows = rng.normal(size=(b, n, t, d))
    logits0 = rng.normal(size=(b * n * (n - 1), 3))
    logits0[::3] = [0.0, -391.0, -391.0]
    q = T._softmax(logits0[::3])
    assert np.all(q[:, 1:] > 0.0) and np.all(q[:, 1:] * q[:, 1:] == 0.0)
    preds0 = rng.normal(size=(t - 1, b * n, d))
    noise = gumbel(rng, logits0.shape)
    model = ModelParams.create(rng, t, d, enc_hidden=8, dec_hidden=6, msg_dim=6)
    grads = {}
    for weight in (0.05, 5.0):
        config = TrainConfig(prior=(0.6, 0.2, 0.2), sparsity_mode=GROUP_LASSO,
                             lambda_sparse=weight)
        loss, parts, logits, _ = head_loss(monkeypatch, model, windows, config, noise,
                                           logits0, preds0)
        loss.backward()
        assert np.isfinite(parts["sparsity"])
        assert np.all(np.isfinite(logits.grad))
        grads[weight] = logits.grad
    assert np.array_equal(grads[0.05][::3], grads[5.0][::3])
    assert not np.allclose(grads[0.05][1::3], grads[5.0][1::3])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_segment_sum_matches_loop(n, batch, seed):
    """`edge_terms` sums each receiver's incoming hb and sep edge columns
    (its two degrees) and weighs the message heads' biases by them; a loop
    over the pairs, by their receiver, agrees."""
    rng = np.random.default_rng(seed)
    idx = pair_index(n, batch)
    onehots = rng.normal(size=(batch * idx.n_pairs, 3))
    b_hb, b_sep = rng.normal(size=(2, 1, 5))
    (a_hb, a_sep, bias), (deg_hb, deg_sep) = edge_terms(onehots, b_hb, b_sep, idx)
    expect_hb, expect_sep = np.zeros((batch * n, 1)), np.zeros((batch * n, 1))
    for r, j in enumerate(idx.receivers):
        row = (r // idx.n_pairs) * n + j
        expect_hb[row] += onehots[r, 1]
        expect_sep[row] += onehots[r, 2]
    assert np.array_equal(a_hb, onehots[:, 1:2]) and np.array_equal(a_sep, onehots[:, 2:3])
    assert np.allclose(deg_hb, expect_hb, rtol=0.0, atol=1e-12)
    assert np.allclose(deg_sep, expect_sep, rtol=0.0, atol=1e-12)
    assert np.allclose(bias, expect_hb * b_hb + expect_sep * b_sep, rtol=0.0, atol=1e-12)


def test_softmax_rows_normalized(rng):
    logits = rng.normal(scale=5.0, size=(20, 3))
    y = T._softmax(logits)
    assert np.all(y >= 0)
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_backward_matches_finite_differences(rng):
    x0 = rng.uniform(-1.5, 1.5, size=(3, 4))
    g = rng.normal(size=(3, 4))
    got = T._softmax_backward(g, T._softmax(x0))
    fd = central_difference(lambda a: float(np.sum(g * T._softmax(a))), x0.copy())
    assert np.max(np.abs(got - fd)) < 1e-6


def test_finite_guard():
    with pytest.raises(T.NumericalError):
        T.assert_finite(np.array([1.0, np.inf]), "probe")
