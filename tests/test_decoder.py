import numpy as np
import pytest

from hbrca.decoder import DecoderParams, rollout, rollout_eval, rollout_train, step
from hbrca.errors import DimensionError, ParameterError
from hbrca.graph import pair_index
from hbrca.tensor import Tensor


def zero_decoder(d=2):
    p = DecoderParams.create(np.random.default_rng(0), d, hidden=4, msg_dim=4)
    for t in p.parameters().values():
        t.data[...] = 0.0
    return p


def edges_all(n, which):
    e = np.zeros((n, n, 3))
    e[..., which] = 1.0
    return e


def test_zero_parameters_make_identity_step(rng):
    n, d = 4, 2
    params = zero_decoder(d)
    r = rng.normal(size=(n, d))
    mu = step(params, r, edges_all(n, 1))
    assert np.array_equal(mu, r)


def test_all_noncausal_edges_give_shared_offset(rng):
    n, d = 5, 3
    params = DecoderParams.create(rng, d, hidden=4, msg_dim=4)
    r = rng.normal(size=(n, d))
    mu = step(params, r, edges_all(n, 0))
    offsets = mu - r
    # messages vanish, so every node gets the same update f(0)
    assert np.max(np.abs(offsets - offsets[0])) < 1e-12
    assert np.max(np.abs(offsets[0])) > 0  # generic parameters, nonzero map


def test_step_validates_shapes(rng):
    params = zero_decoder(2)
    with pytest.raises(DimensionError):
        step(params, np.zeros((3, 2)), np.zeros((4, 4, 3)))


# -- scalar unroll oracle -----------------------------------------------------------


def _vecmat(x, w, b):
    return [
        sum(x[i] * w[i][j] for i in range(len(x))) + b[j] for j in range(len(w[0]))
    ]


def _relu_vec(v):
    return [x if x > 0 else 0.0 for x in v]


def _mlp_scalar(x, m):
    h = _relu_vec(_vecmat(x, m.w1.data.tolist(), m.b1.data[0].tolist()))
    return _relu_vec(_vecmat(h, m.w2.data.tolist(), m.b2.data[0].tolist()))


def _linear_scalar(x, lin):
    return _vecmat(x, lin.w.data.tolist(), lin.b.data[0].tolist())


def test_two_node_step_matches_scalar_unroll(rng):
    n, d = 2, 2
    params = DecoderParams.create(rng, d, hidden=3, msg_dim=3)
    r = rng.normal(size=(n, d))
    edges = np.zeros((n, n, 3))
    edges[0, 1] = [0.1, 0.6, 0.3]  # relaxed one-hot on 0 -> 1
    edges[1, 0] = [0.0, 0.0, 1.0]  # hard separation edge on 1 -> 0
    mu = step(params, r, edges)

    def message(i, j):
        pair = r[i].tolist() + r[j].tolist()
        m_hb = _linear_scalar(_mlp_scalar(pair, params.msg_hb), params.msg_hb_head)
        m_sep = _linear_scalar(_mlp_scalar(pair, params.msg_sep), params.msg_sep_head)
        a = edges[i, j]
        return [a[1] * h + a[2] * s for h, s in zip(m_hb, m_sep)]

    for j in range(n):
        agg = [0.0] * 3
        for i in range(n):
            if i == j:
                continue
            m = message(i, j)
            agg = [x + y for x, y in zip(agg, m)]
        delta = _linear_scalar(_mlp_scalar(agg, params.node), params.out_head)
        expect = [r[j][k] + delta[k] for k in range(d)]
        assert np.max(np.abs(mu[j] - expect)) < 1e-12


def test_edge_type_change_affects_only_target_node(rng):
    n, d = 5, 2
    params = DecoderParams.create(rng, d, hidden=8, msg_dim=8)
    r = rng.normal(size=(n, d))
    base = edges_all(n, 0)
    mu0 = step(params, r, base)
    mod = base.copy()
    mod[1, 3] = [0.0, 1.0, 0.0]  # single causal edge 1 -> 3
    mu1 = step(params, r, mod)
    changed = np.max(np.abs(mu1 - mu0), axis=1) > 0
    assert changed[3]
    assert not changed[[0, 1, 2, 4]].any()


def test_permutation_equivariance(rng):
    n, d = 4, 3
    params = DecoderParams.create(rng, d, hidden=8, msg_dim=8)
    r = rng.normal(size=(n, d))
    edges = np.random.default_rng(5).dirichlet([1, 1, 1], size=(n, n))
    mu = step(params, r, edges)
    perm = rng.permutation(n)
    mu_p = step(params, r[perm], edges[np.ix_(perm, perm)])
    assert np.max(np.abs(mu_p - mu[perm])) < 1e-9


# -- rollout ---------------------------------------------------------------------


def test_rollout_k1_is_teacher_forcing(rng):
    n, t, d = 3, 6, 2
    params = DecoderParams.create(rng, d, hidden=4, msg_dim=4)
    teacher = rng.normal(size=(n, t, d))
    edges = edges_all(n, 1)
    preds = rollout(params, teacher[:, 0, :], edges, k=1, teacher=teacher)
    for step_i in range(t - 1):
        expect = step(params, teacher[:, step_i, :], edges)
        assert np.max(np.abs(preds[:, step_i, :] - expect)) < 1e-12


def test_rollout_k_equal_t_is_pure_self_rollout(rng):
    n, t, d = 3, 5, 2
    params = DecoderParams.create(rng, d, hidden=4, msg_dim=4)
    teacher = rng.normal(size=(n, t, d))
    edges = edges_all(n, 1)
    scheduled = rollout(params, teacher[:, 0, :], edges, k=t, teacher=teacher)
    free = rollout(params, teacher[:, 0, :], edges, k=t, n_steps=t - 1)
    assert np.max(np.abs(scheduled - free)) < 1e-12


def test_eval_rollout_is_the_t_minus_1_schedule_bitwise(rng):
    """A batch self-rollout on plain arrays equals the taped scheduled
    rollout at k = T-1, bit for bit."""
    b, n, t, d = 4, 5, 50, 3
    params = DecoderParams.create(rng, d)
    windows = rng.normal(size=(b, n, t, d))
    edges = np.eye(3)[rng.integers(0, 3, size=b * n * (n - 1))]
    idx = pair_index(n, b)
    scheduled = rollout_train(params, windows, Tensor(edges), t - 1, idx)
    expect = np.stack([mu.data for mu in scheduled]).reshape(t - 1, b, n, d)
    assert np.array_equal(rollout_eval(params, windows, edges, idx),
                          expect.transpose(1, 2, 0, 3))


def test_rollout_reintroduces_truth_every_k(rng):
    n, t, d, k = 2, 7, 2, 3
    params = DecoderParams.create(rng, d, hidden=4, msg_dim=4)
    teacher = rng.normal(size=(n, t, d))
    edges = edges_all(n, 1)
    preds = rollout(params, teacher[:, 0, :], edges, k=k, teacher=teacher)
    # steps 1..3 feed themselves from r_0, step 4 must restart from r_3
    manual = step(params, teacher[:, 3, :], edges)
    assert np.max(np.abs(preds[:, 3, :] - manual)) < 1e-12


def test_zero_decoder_rollout_repeats_initial_state(rng):
    n, d = 3, 2
    params = zero_decoder(d)
    r1 = rng.normal(size=(n, d))
    preds = rollout(params, r1, edges_all(n, 2), k=4, n_steps=6)
    assert np.max(np.abs(preds - r1[:, None, :])) == 0.0


def test_rollout_rejects_bad_k(rng):
    params = zero_decoder(2)
    with pytest.raises(ParameterError):
        rollout(params, np.zeros((3, 2)), edges_all(3, 0), k=0, n_steps=3)
