import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from hbrca.encoder import EdgePosterior
from hbrca.errors import DataError, ParameterError
from hbrca.graph import pair_index
from hbrca.rca import (
    CHANNEL_SCORE,
    REGIME_CONTRAST_SCORE,
    GroundTruthOracle,
    RcaReport,
    accuracy_csv,
    aggregate_accuracy,
    bernoulli_kl,
    expectation_distance,
    gaussian_kl,
    node_scores,
    node_scores_from_flat,
    rank_descending,
    ranking_accuracy,
    rca_scores,
    regime_contrast_scores,
    run_rca,
    score_kind,
    wasserstein2_gaussian,
)


def posterior_from_channels(p_hb: np.ndarray, p_sep: np.ndarray) -> EdgePosterior:
    n = p_hb.shape[0]
    probs = np.zeros((n, n, 3))
    probs[..., 1] = p_hb
    probs[..., 2] = p_sep
    probs[..., 0] = 1.0 - p_hb - p_sep
    off = ~np.eye(n, dtype=bool)
    probs[~off] = 0.0
    logits = np.log(np.clip(probs, 1e-12, None))
    return EdgePosterior(probs, logits)


def test_identical_channels_score_zero():
    p = np.full((4, 4), 0.3)
    post = posterior_from_channels(p, p)
    assert np.max(node_scores(post)) == 0.0


def test_single_edge_bernoulli_arithmetic():
    """One incoming edge with p_sep 0.9 vs p_hb 0.1."""
    n = 2
    p_hb = np.zeros((n, n))
    p_sep = np.zeros((n, n))
    p_hb[0, 1] = 0.1
    p_sep[0, 1] = 0.9
    p_hb[1, 0] = 0.4  # keep the reverse edge symmetric-channel
    p_sep[1, 0] = 0.4
    post = posterior_from_channels(p_hb, p_sep)
    scores = node_scores(post)
    expect = 0.9 * math.log(9.0) + 0.1 * math.log(1.0 / 9.0)
    assert abs(scores[1] - expect) < 1e-9
    assert abs(expect - 1.7578) < 1e-4
    assert scores[0] < 1e-12


def test_scores_use_incoming_edges():
    n = 3
    p_hb = np.full((n, n), 0.1)
    p_sep = np.full((n, n), 0.1)
    p_sep[0, 2] = 0.8  # edge 0 -> 2 changed: node 2 is the target
    post = posterior_from_channels(p_hb, p_sep)
    scores = node_scores(post)
    assert np.argmax(scores) == 2
    assert scores[0] < 1e-12


def test_extreme_probabilities_are_smoothed():
    n = 2
    p_hb = np.array([[0.0, 1.0], [0.0, 0.0]])
    p_sep = np.array([[0.0, 0.0], [1.0, 0.0]])
    post = posterior_from_channels(p_hb, p_sep)
    scores = node_scores(post)
    assert np.all(np.isfinite(scores))


def test_score_zero_iff_channels_equal():
    """Per-edge divergence is positive exactly when the smoothed
    channels differ."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
           st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def check(p, q):
        kl = bernoulli_kl(np.array([p]), np.array([q]))[0]
        if abs(p - q) < 1e-15:
            assert kl < 1e-12
        else:
            assert kl > 0.0

    check()


def test_ranking_invariant_under_monotone_transform(rng):
    scores = rng.uniform(0.0, 5.0, size=8)
    base = rank_descending(scores)
    assert rank_descending(3.0 * scores + 1.0) == base
    assert rank_descending(np.asarray([math.tanh(s) for s in scores])) == base


# -- regime-contrast score -------------------------------------------------------------


def test_identical_regime_posteriors_score_zero(rng):
    """The same per-window posteriors on both sides of the boundary,
    including a strong fixed hb/sep asymmetry, score exactly 0."""
    n = 4
    windows = rng.dirichlet([8.0, 1.0, 3.0], size=(6, n * (n - 1)))
    probs = np.concatenate([windows, windows])
    scores = regime_contrast_scores(probs, n, list(range(6)), list(range(6, 12)))
    assert np.max(np.abs(scores)) == 0.0
    # the channel score sees the asymmetry the contrast cancels
    assert np.min(node_scores_from_flat(probs, n).mean(axis=0)) > 0.0


def test_changed_incoming_edge_ranks_receiver_first(rng):
    n, sender, receiver = 5, 1, 3
    idx = pair_index(n)
    edge = int(np.flatnonzero((idx.senders == sender) & (idx.receivers == receiver))[0])
    base = np.tile(np.array([0.8, 0.1, 0.1]), (n * (n - 1), 1))
    persist = base + rng.normal(scale=1e-3, size=(8,) + base.shape)
    separated = persist.copy()
    separated[:, edge] = [0.2, 0.1, 0.7]
    persist /= persist.sum(axis=-1, keepdims=True)
    separated /= separated.sum(axis=-1, keepdims=True)
    probs = np.concatenate([persist, separated])
    scores = regime_contrast_scores(probs, n, list(range(8)), list(range(8, 16)))
    assert rank_descending(scores)[0] == receiver
    assert scores[receiver] > 0.5
    assert scores[sender] < 1e-3


def _tiny_model_and_corpus(regimes):
    from hbrca.corpus import RegimeLabels, TrajectoryCorpus
    from hbrca.model import ModelParams

    model = ModelParams.create(
        np.random.default_rng(0), t_window=3, n_dims=2,
        enc_hidden=8, dec_hidden=8, msg_dim=8,
    )
    corpus = TrajectoryCorpus(
        positions=np.random.default_rng(1).normal(size=(len(regimes), 3, 3, 2)),
        atom_names=["a", "b", "c"],
        labels=RegimeLabels(regimes=dict(enumerate(regimes))),
    )
    return model, corpus


def test_single_regime_corpus_falls_back_to_channel_score():
    from hbrca.model import encode_windows

    model, corpus = _tiny_model_and_corpus(["persist"] * 4)
    assert score_kind(corpus) == CHANNEL_SCORE
    probs, _ = encode_windows(model, corpus.positions)
    scores, _ = rca_scores(model, corpus)
    assert np.array_equal(scores, node_scores_from_flat(probs, 3).mean(axis=0))
    report, _ = run_rca(model, corpus, k=2)
    assert report.score == CHANNEL_SCORE


def test_two_regime_corpus_uses_regime_contrast():
    from hbrca.model import encode_windows

    regimes = ["persist", "persist", "separated", "separated", "persist"]
    model, corpus = _tiny_model_and_corpus(regimes)
    assert score_kind(corpus) == REGIME_CONTRAST_SCORE
    probs, _ = encode_windows(model, corpus.positions)
    scores, _ = rca_scores(model, corpus)
    expect = regime_contrast_scores(probs, 3, [0, 1, 4], [2, 3])
    assert np.array_equal(scores, expect)
    report, _ = run_rca(model, corpus, k=2)
    assert report.score == REGIME_CONTRAST_SCORE


# -- closed-form distances ---------------------------------------------------------


def test_gaussian_kl_closed_forms():
    assert gaussian_kl(0.0, 1.0, 0.0, 1.0) == 0.0
    assert abs(gaussian_kl(1.0, 1.0, 0.0, 1.0) - 0.5) < 1e-12


def test_gaussian_kl_rejects_bad_variance():
    with pytest.raises(ParameterError):
        gaussian_kl(0.0, 0.0, 0.0, 1.0)


def test_gaussian_kl_matches_quadrature(rng):
    for _ in range(100):
        mu1, mu2 = rng.uniform(-2, 2, size=2)
        s1, s2 = rng.uniform(0.3, 2.0, size=2)

        def integrand(x):
            p = stats.norm.pdf(x, mu1, s1)
            q = stats.norm.pdf(x, mu2, s2)
            return p * (stats.norm.logpdf(x, mu1, s1) - stats.norm.logpdf(x, mu2, s2))

        lo = min(mu1 - 12 * s1, mu2 - 12 * s2)
        hi = max(mu1 + 12 * s1, mu2 + 12 * s2)
        oracle, _ = integrate.quad(integrand, lo, hi, limit=300)
        assert abs(gaussian_kl(mu1, s1**2, mu2, s2**2) - oracle) < 1e-6


def test_wasserstein_closed_forms():
    assert wasserstein2_gaussian(0.0, 1.0, 0.0, 1.0) == 0.0
    assert abs(wasserstein2_gaussian(1.0, 1.0, 0.0, 1.0) - 1.0) < 1e-12
    # pure variance shift: var 1 vs 4 means sigma 1 vs 2
    assert abs(wasserstein2_gaussian(0.0, 1.0, 0.0, 2.0) - 1.0) < 1e-12
    assert expectation_distance(0.0, 0.0) == 0.0


def test_wasserstein_matches_quantile_quadrature(rng):
    for _ in range(100):
        mu1, mu2 = rng.uniform(-2, 2, size=2)
        s1, s2 = rng.uniform(0.3, 2.0, size=2)

        def integrand(u):
            return (stats.norm.ppf(u, mu1, s1) - stats.norm.ppf(u, mu2, s2)) ** 2

        oracle_sq, _ = integrate.quad(integrand, 0.0, 1.0, limit=300)
        assert abs(wasserstein2_gaussian(mu1, s1, mu2, s2) - math.sqrt(oracle_sq)) < 1e-6


def test_expectation_distance_ignores_variance():
    assert expectation_distance(np.zeros(3), np.zeros(3)) == 0.0
    assert abs(expectation_distance(np.array([1.0, 2.0, 2.0]), np.zeros(3)) - 3.0) < 1e-12


# -- KL additivity over independent mechanisms ---------------------------------------


def test_kl_additive_over_independent_nodes(rng):
    """Five independent 3-state mechanisms: per-node KLs must sum to the
    joint KL enumerated over all 3^5 outcomes."""
    n_nodes, n_states = 5, 3
    p = rng.dirichlet(np.ones(n_states), size=n_nodes)
    q = rng.dirichlet(np.ones(n_states), size=n_nodes)
    per_node = sum(
        float(np.sum(q[i] * np.log(q[i] / p[i]))) for i in range(n_nodes)
    )
    joint = 0.0
    for outcome in itertools.product(range(n_states), repeat=n_nodes):
        pq = math.prod(q[i][s] for i, s in enumerate(outcome))
        pp = math.prod(p[i][s] for i, s in enumerate(outcome))
        joint += pq * math.log(pq / pp)
    assert abs(per_node - joint) < 1e-9


# -- oracle and report ---------------------------------------------------------------


def test_oracle_requires_both_regimes():
    from hbrca.corpus import RegimeLabels, TrajectoryCorpus

    corpus = TrajectoryCorpus(
        positions=np.zeros((2, 2, 3, 1)), atom_names=["a", "b"],
        labels=RegimeLabels(regimes={0: "persist", 1: "persist"}),
    )
    with pytest.raises(DataError):
        GroundTruthOracle.fit(corpus)


def test_oracle_floors_variance(rng):
    from hbrca.corpus import RegimeLabels, TrajectoryCorpus

    pos = np.zeros((2, 2, 5, 1))
    pos[1, 1] = 1.0  # constant but different per regime
    corpus = TrajectoryCorpus(
        positions=pos, atom_names=["a", "b"],
        labels=RegimeLabels(regimes={0: "persist", 1: "separated"}),
    )
    oracle = GroundTruthOracle.fit(corpus)
    assert np.all(oracle.var_persist >= 1e-12)
    scores = oracle.scores("kl")
    assert np.isfinite(scores).all()
    assert scores[1] > scores[0]


def test_ranking_accuracy_limits():
    assert ranking_accuracy([1, 2, 3], [1, 2, 3], k=3) == 1.0
    assert ranking_accuracy([1, 2], [3, 4], k=2) == 0.0
    assert ranking_accuracy([1, 2, 3, 4], [1, 9, 3, 8], k=4) == 0.5
    with pytest.raises(ParameterError):
        ranking_accuracy([0], [1], k=2)


def test_report_sorted_descending_and_flags(rng):
    scores = np.array([0.3, 0.01, 2.0, 0.5])
    report = RcaReport(scores=scores, atom_names=list("abcd"), k=2)
    assert report.order == [2, 3, 0, 1]
    assert report.top_k == [2, 3]
    assert not report.no_change_detected
    content = report.to_csv()
    lines = content.strip().split("\n")
    assert lines[0] == "rank,atom,score"
    assert lines[1].startswith("1,c,2")

    quiet = RcaReport(scores=np.full(4, 1e-5), atom_names=list("abcd"), k=2)
    assert quiet.no_change_detected


def test_accuracy_aggregation_and_csv():
    rows = aggregate_accuracy([
        {"kl": 0.8, "wasserstein": 1.0, "expectation": None},
        {"kl": 1.0, "wasserstein": 0.5, "expectation": None},
    ])
    assert rows["kl"] == (0.9, pytest.approx(0.1))
    assert rows["expectation"] is None
    content = accuracy_csv(rows)
    assert "expectation,na,na" in content
    assert content.startswith("oracle_metric,mean,std\n")
