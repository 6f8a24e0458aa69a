import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from hbrca.errors import DataError, ParameterError
from hbrca.graph import pair_index
from hbrca.rca import (
    GroundTruthOracle,
    RcaReport,
    accuracy_csv,
    aggregate_accuracy,
    expectation_distance,
    gaussian_kl,
    rank_descending,
    ranking_accuracy,
    rca_scores,
    regime_contrast_scores,
    run_rca,
    wasserstein2_gaussian,
)


def two_regimes(persist_rows: np.ndarray, separated_rows: np.ndarray):
    """Flat posteriors [2, E, 3] of one persist and one separated window,
    with their (persist, separated) window indices."""
    return np.stack([persist_rows, separated_rows]), [0], [1]


def test_single_edge_regime_contrast_arithmetic():
    """One incoming edge, 0 -> 1, moves from (0.5, 0.4, 0.1) to
    (0.5, 0.1, 0.4); the edge 1 -> 0 stays put."""
    still = [0.6, 0.2, 0.2]
    probs, persist, separated = two_regimes(
        np.array([still, [0.5, 0.4, 0.1]]), np.array([still, [0.5, 0.1, 0.4]])
    )
    assert pair_index(2).receivers.tolist() == [0, 1]
    scores = regime_contrast_scores(probs, 2, persist, separated)
    expect = 0.1 * math.log(0.25) + 0.4 * math.log(4.0)
    assert abs(scores[1] - expect) < 1e-12
    assert abs(expect - 0.4159) < 1e-4
    assert scores[0] == 0.0


def test_scores_use_incoming_edges():
    """Only node 0's outgoing edges change: node 0 scores 0, and each
    receiver of a changed edge scores above 0."""
    n = 3
    idx = pair_index(n)
    persist_rows = np.tile([0.8, 0.1, 0.1], (n * (n - 1), 1))
    separated_rows = persist_rows.copy()
    separated_rows[idx.senders == 0] = [0.2, 0.1, 0.7]
    probs, persist, separated = two_regimes(persist_rows, separated_rows)
    scores = regime_contrast_scores(probs, n, persist, separated)
    assert scores[0] == 0.0
    assert np.all(scores[1:] > 0.5)


def test_extreme_probabilities_are_smoothed():
    """One-hot posteriors, all non-causal before and all hb after, still
    give finite scores: each regime mean is clipped at EPS."""
    n = 3
    e = n * (n - 1)
    probs, persist, separated = two_regimes(np.tile([1.0, 0.0, 0.0], (e, 1)),
                                            np.tile([0.0, 1.0, 0.0], (e, 1)))
    scores = regime_contrast_scores(probs, n, persist, separated)
    assert np.all(np.isfinite(scores))
    assert np.all(scores > 0.0)


def test_score_zero_iff_regime_means_equal():
    """A node's score is exactly 0 when its incoming edges have the same
    regime means, and positive when they differ."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def rows(p):
        return np.tile([p, 0.7 * (1.0 - p), 0.3 * (1.0 - p)], (2, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
           st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def check(p, q):
        probs, persist, separated = two_regimes(rows(p), rows(q))
        scores = regime_contrast_scores(probs, 2, persist, separated)
        if p == q:
            assert np.all(scores == 0.0)
        elif abs(p - q) > 1e-6:
            assert np.all(scores > 0.0)

    check()


def test_scores_are_permutation_equivariant(rng):
    """Relabeling the atoms, with the pair rows reordered to match,
    permutes the scores the same way."""
    n, windows = 6, 7
    idx = pair_index(n)
    probs = rng.dirichlet([2.0, 1.0, 1.0], size=(windows, n * (n - 1)))
    persist, separated = [0, 2, 3, 6], [1, 4, 5]
    perm = rng.permutation(n)  # old atom a becomes atom perm[a]
    inverse = np.argsort(perm)
    row_of = {(s, r): e for e, (s, r) in enumerate(zip(idx.senders, idx.receivers))}
    rows = [row_of[(inverse[s], inverse[r])] for s, r in zip(idx.senders, idx.receivers)]
    scores = regime_contrast_scores(probs, n, persist, separated)
    relabeled = regime_contrast_scores(probs[:, rows], n, persist, separated)
    assert not np.allclose(scores, scores[0])
    assert np.allclose(relabeled[perm], scores, rtol=1e-12, atol=0.0)


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


def _tiny_model_and_corpus(regimes, labeled=True):
    """A random model and a 3-atom corpus of one window per entry of
    `regimes`, labeled with them unless `labeled` is false."""
    from hbrca.corpus import RegimeLabels, TrajectoryCorpus
    from hbrca.model import ModelParams

    model = ModelParams.create(
        np.random.default_rng(0), t_window=3, n_dims=2,
        enc_hidden=8, dec_hidden=8, msg_dim=8,
    )
    corpus = TrajectoryCorpus(
        positions=np.random.default_rng(1).normal(size=(len(regimes), 3, 3, 2)),
        atom_names=["a", "b", "c"],
        labels=RegimeLabels(regimes=dict(enumerate(regimes))) if labeled else None,
    )
    return model, corpus


@pytest.mark.parametrize("regimes,labeled", [
    (["persist"] * 4, True), (["separated"] * 3, True), (["persist", "separated"] * 2, False),
], ids=["persist-only", "separated-only", "unlabeled"])
def test_corpus_without_both_regimes_scores_zero(regimes, labeled):
    """No change to explain: every score is 0, the report flags no change
    and has no oracle accuracy, and the posterior still averages every
    window."""
    from hbrca.model import encode_windows, mean_posterior

    model, corpus = _tiny_model_and_corpus(regimes, labeled)
    probs, _ = encode_windows(model, corpus.positions)
    scores, posterior = rca_scores(model, corpus)
    assert np.array_equal(scores, np.zeros(3))
    assert np.array_equal(posterior.probs, mean_posterior(probs, 3).probs)
    report, _ = run_rca(model, corpus, k=2)
    assert report.no_change_detected
    assert report.accuracy == {"kl": None, "wasserstein": None, "expectation": None}


def test_two_regime_corpus_uses_regime_contrast():
    from hbrca.model import encode_windows

    regimes = ["persist", "persist", "separated", "separated", "persist"]
    model, corpus = _tiny_model_and_corpus(regimes)
    probs, _ = encode_windows(model, corpus.positions)
    scores, _ = rca_scores(model, corpus)
    expect = regime_contrast_scores(probs, 3, [0, 1, 4], [2, 3])
    assert np.array_equal(scores, expect)
    report, _ = run_rca(model, corpus, k=2)
    assert np.array_equal(report.scores, expect)
    assert all(value is not None for value in report.accuracy.values())


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
