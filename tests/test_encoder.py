import math

import numpy as np
import pytest

from hbrca.encoder import (
    CATEGORICAL_HARD,
    CONCRETE,
    EdgePosterior,
    EncoderParams,
    encode,
    export_posterior_csv,
    sample_edges,
)
from hbrca.errors import DimensionError, ParameterError
from hbrca.layers import BN_EPS

def zero_params(n_in, hidden=4):
    rng = np.random.default_rng(0)
    p = EncoderParams.create(rng, n_in, hidden)
    for t in p.parameters().values():
        t.data[...] = 0.0
    return p


def test_zero_parameters_give_uniform_posterior():
    n, t, d = 4, 3, 2
    params = zero_params(t * d)
    post = encode(params, np.random.default_rng(1).normal(size=(n, t, d)))
    off = ~np.eye(n, dtype=bool)
    assert np.max(np.abs(post.probs[off] - 1.0 / 3.0)) < 1e-12


def test_encode_checks_shape():
    params = zero_params(6)
    with pytest.raises(DimensionError):
        encode(params, np.zeros((3, 5, 2)))


# -- scalar unroll oracle ---------------------------------------------------------


def _vecmat(x, w, b):
    n_out = len(w[0])
    return [sum(x[i] * w[i][j] for i in range(len(x))) + b[j] for j in range(n_out)]


def _elu(v):
    return v if v > 0 else math.exp(v) - 1.0


def _mlp_scalar(x, m):
    h = [_elu(v) for v in _vecmat(x, m.w1.data.tolist(), m.b1.data[0].tolist())]
    h = [_elu(v) for v in _vecmat(h, m.w2.data.tolist(), m.b2.data[0].tolist())]
    if m.bn is not None:
        out = []
        for j, v in enumerate(h):
            xh = (v - m.bn.running_mean[0, j]) / math.sqrt(
                m.bn.running_var[0, j] + BN_EPS
            )
            out.append(xh * m.bn.gamma.data[0, j] + m.bn.beta.data[0, j])
        h = out
    return h


def test_two_node_encoder_matches_scalar_unroll(rng):
    n, t, d, hidden = 2, 2, 1, 2
    params = EncoderParams.create(rng, t * d, hidden)
    # make the eval-mode normalization non-trivial
    for mlp in (params.embed, params.edge1, params.node1, params.edge2):
        mlp.bn.running_mean[...] = rng.normal(size=mlp.bn.running_mean.shape)
        mlp.bn.running_var[...] = rng.uniform(0.5, 2.0, size=mlp.bn.running_var.shape)
    sample = rng.normal(size=(n, t, d))
    post = encode(params, sample)

    x0 = sample[0].reshape(-1).tolist()
    x1 = sample[1].reshape(-1).tolist()
    m1 = [_mlp_scalar(x0, params.embed), _mlp_scalar(x1, params.embed)]
    # receiver-major pair order for N=2: (1 -> 0), (0 -> 1)
    e10 = _mlp_scalar(m1[1] + m1[0], params.edge1)
    e01 = _mlp_scalar(m1[0] + m1[1], params.edge1)
    m2 = [_mlp_scalar(e10, params.node1), _mlp_scalar(e01, params.node1)]
    f10 = _mlp_scalar(m2[1] + m2[0], params.edge2)
    f01 = _mlp_scalar(m2[0] + m2[1], params.edge2)

    def head(h):
        logits = _vecmat(h, params.out.w.data.tolist(), params.out.b.data[0].tolist())
        exps = [math.exp(v - max(logits)) for v in logits]
        z = sum(exps)
        return [e / z for e in exps]

    assert np.max(np.abs(post.probs[1, 0] - head(f10))) < 1e-12
    assert np.max(np.abs(post.probs[0, 1] - head(f01))) < 1e-12


def test_permutation_equivariance(rng):
    n, t, d = 5, 3, 2
    params = EncoderParams.create(rng, t * d, hidden=8)
    sample = rng.normal(size=(n, t, d))
    post = encode(params, sample)
    perm = rng.permutation(n)
    post_p = encode(params, sample[perm])
    off = ~np.eye(n, dtype=bool)
    expected = post.probs[np.ix_(perm, perm)]
    assert np.max(np.abs((post_p.probs - expected)[off])) < 1e-9


def test_posterior_invariants_enforced():
    bad = np.full((3, 3, 3), 0.5)
    with pytest.raises(ParameterError):
        EdgePosterior(bad, np.zeros((3, 3, 3)))


# -- edge sampling -----------------------------------------------------------------


def one_hot_posterior(n=3, which=1):
    probs = np.zeros((n, n, 3))
    probs[..., which] = 1.0
    logits = np.where(probs > 0, 0.0, -1e9)
    return EdgePosterior(probs, logits)


def test_one_hot_posterior_survives_both_modes(rng):
    post = one_hot_posterior()
    hard = sample_edges(post, 0.5, CATEGORICAL_HARD, np.random.default_rng(0))
    conc = sample_edges(post, 0.5, CONCRETE, np.random.default_rng(0))
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(hard[off], post.probs[off])
    assert np.max(np.abs(conc[off] - post.probs[off])) < 1e-12


def test_unknown_mode_rejected():
    with pytest.raises(ParameterError):
        sample_edges(one_hot_posterior(), 0.5, "magic", np.random.default_rng(0))


def test_hard_mode_frequencies_track_posterior():
    probs = np.tile(np.array([0.2, 0.3, 0.5]), (2, 2, 1))
    logits = np.log(probs)
    post = EdgePosterior(probs, logits)
    rng = np.random.default_rng(11)
    counts = np.zeros(3)
    draws = 100_000
    for _ in range(draws // 2):  # 2 off-diagonal pairs per draw
        e = sample_edges(post, 0.5, CATEGORICAL_HARD, rng)
        counts += e[0, 1] + e[1, 0]
    freqs = counts / draws
    assert np.max(np.abs(freqs - [0.2, 0.3, 0.5])) < 0.01


def test_posterior_csv_shape():
    content = export_posterior_csv(one_hot_posterior())
    lines = content.strip().split("\n")
    assert lines[0] == "i,j,p_none,p_hb,p_sep"
    assert len(lines) == 1 + 6  # 3*2 ordered off-diagonal pairs
    assert lines[1].startswith("0,1,")
