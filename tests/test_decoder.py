import numpy as np
import pytest

from hbrca import model as model_mod
from hbrca.decoder import DecoderParams, rollout, rollout_eval, rollout_train, step
from hbrca.errors import DimensionError, ParameterError
from hbrca.graph import pair_index
from hbrca.layers import Mlp2
from hbrca.model import _CHUNK, ModelParams, predict_windows
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


def _edge_rows(kind, rows, rng):
    """[rows, 3] edge weights: hard one-hots of one kind or mixed, one lone
    hb row among sep rows, or relaxed (with or without exact zeros)."""
    if kind in ("none", "hb", "sep"):
        return np.eye(3)[np.full(rows, ("none", "hb", "sep").index(kind))]
    if kind == "lone hb":
        edges = np.eye(3)[np.full(rows, 2)]
        edges[rows // 2] = [0.0, 1.0, 0.0]
        return edges
    if kind.startswith("relaxed"):
        edges = rng.dirichlet([1.0, 1.0, 1.0], size=rows)
        if kind == "relaxed with zeros":
            edges[rng.random(edges.shape) < 0.3] = 0.0
        return edges
    return np.eye(3)[rng.integers(0, 3, size=rows)]


def _schedule_ref(params, windows, edges, idx):
    """The taped k = T-1 rollout as a [B, N, T-1, D] array."""
    b, n, t, d = windows.shape
    scheduled = rollout_train(params, windows, Tensor(edges), t - 1, idx)
    expect = scheduled.data.reshape(t - 1, b, n, d)
    return expect.transpose(1, 2, 0, 3)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("b, n, t, kind, signed_zeros", [
    (4, 5, 50, "mixed", False),
    (3, 4, 6, "none", False),
    (3, 4, 6, "hb", False),
    (3, 4, 6, "sep", False),
    (2, 4, 6, "lone hb", False),
    (3, 2, 8, "mixed", False),
    (2, 10, 6, "mixed", False),
    (1, 2, 8, "lone hb", False),
    (3, 4, 8, "relaxed", False),
    (3, 4, 8, "relaxed with zeros", False),
    (4, 5, 8, "mixed", True),
])
def test_eval_rollout_is_the_t_minus_1_schedule_bitwise(rng, b, n, t, kind, signed_zeros):
    """A batch self-rollout on plain arrays, each message network on its
    own type's rows, equals the taped scheduled rollout at k = T-1, which
    runs both networks on every pair, bit for bit."""
    d = 3
    params = DecoderParams.create(rng, d)
    windows = rng.normal(size=(b, n, t, d))
    if signed_zeros:
        pick = rng.random(windows.shape) < 0.25
        windows[pick] = np.where(rng.random(windows.shape) < 0.5, 0.0, -0.0)[pick]
    edges = _edge_rows(kind, b * n * (n - 1), rng)
    idx = pair_index(n, b)
    assert _same_bits(rollout_eval(params, windows, edges, idx),
                      _schedule_ref(params, windows, edges, idx))


def test_predict_windows_with_a_partial_chunk_is_the_schedule_bitwise(rng, monkeypatch):
    """`predict_windows` over a batch whose last chunk is partial: each
    chunk's hard-edge rollout equals the taped schedule on that chunk."""
    model = ModelParams.create(rng, 6, 2, enc_hidden=8, dec_hidden=6, msg_dim=6)
    windows = rng.normal(size=(_CHUNK + 3, 4, 6, 2))
    chunks = []

    def recording(params, chunk, edges, idx):
        chunks.append((chunk, edges, idx))
        return rollout_eval(params, chunk, edges, idx)

    monkeypatch.setattr(model_mod, "rollout_eval", recording)
    preds = predict_windows(model, windows, 0.5, 0)
    assert [len(c) for c, _, _ in chunks] == [_CHUNK, 3]
    expect = np.concatenate([_schedule_ref(model.decoder, c, e, i) for c, e, i in chunks])
    assert _same_bits(preds, expect)


def test_eval_runs_each_message_network_on_its_own_pairs(rng, monkeypatch):
    """With hard edges each message network sees only the pairs of its own
    type at every step, so the rows reaching the two networks add up to
    the hb pairs plus the sep pairs, not twice every pair."""
    model = ModelParams.create(rng, 6, 2, enc_hidden=8, dec_hidden=6, msg_dim=6)
    s, n, t = _CHUNK + 3, 5, 6
    windows = rng.normal(size=(s, n, t, 2))
    nets = {id(model.decoder.msg_hb): "hb", id(model.decoder.msg_sep): "sep"}
    rows = {"hb": 0, "sep": 0}
    drawn = []
    run_rows, eval_rollout = Mlp2.run_rows, model_mod.rollout_eval

    def counting(self, x, training):
        if id(self) in nets:
            rows[nets[id(self)]] += len(x)
        return run_rows(self, x, training)

    def recording(params, chunk, edges, idx):
        drawn.append(edges)
        return eval_rollout(params, chunk, edges, idx)

    monkeypatch.setattr(Mlp2, "run_rows", counting)
    monkeypatch.setattr(model_mod, "rollout_eval", recording)
    predict_windows(model, windows, 0.5, 0)
    edges = np.concatenate(drawn)
    assert edges.shape == (s * n * (n - 1), 3)
    hb, sep = (int(np.count_nonzero(edges[:, c])) * (t - 1) for c in (1, 2))
    assert rows == {"hb": hb, "sep": sep}
    assert 0 < hb + sep < 2 * len(edges) * (t - 1)


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


@pytest.mark.parametrize("shape", [(4, 6, 2), (3, 2), (3, 1, 2), (3, 6, 3)],
                         ids=["wrong N", "2-D", "T=1", "wrong D"])
def test_rollout_rejects_a_teacher_of_the_wrong_shape(rng, shape):
    params = DecoderParams.create(rng, 2, hidden=4, msg_dim=4)
    r_1 = rng.normal(size=(3, 2))
    teacher = rng.normal(size=shape)
    with pytest.raises(DimensionError):
        rollout(params, r_1, edges_all(3, 1), k=2, teacher=teacher)


def test_rollout_rejects_r_1_other_than_the_teachers_first_state(rng):
    params = DecoderParams.create(rng, 2, hidden=4, msg_dim=4)
    teacher = rng.normal(size=(3, 6, 2))
    with pytest.raises(ParameterError):
        rollout(params, teacher[:, 0] + 100.0, edges_all(3, 1), k=2, teacher=teacher)
