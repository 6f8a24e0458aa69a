"""Root-cause scoring from a trained edge-type posterior.

A root cause of a persist -> separated regime change is a node whose
incoming causal mechanisms change between the regimes. When the corpus
labels hold both persist and separated windows, the score is the
regime contrast (after Budhathoki et al., "Why did the distribution
change?", AISTATS 2021, which attributes a change in the joint
distribution to changes in individual causal mechanisms):

    score(i) = sum_j KL(Cat(qbar_sep(j -> i)) || Cat(qbar_persist(j -> i)))

where qbar_r is the eval-mode edge-type posterior averaged over the
windows of regime r and clipped at EPS. Statistically identical regimes
give identical averages and a score of 0; a fixed asymmetry between the
hb and sep channels, which both regimes share, cancels.

Corpora without both regimes (no labels, or one regime only) fall back
to the channel score: each ordered edge (j -> i) carries two causal
channel probabilities, p_hb (bonded mechanism) and p_sep (separation
mechanism); the KL divergence from the separation channel's Bernoulli
projection to the bonded one, summed over the incoming edges of node i,
is computed per window and averaged. Either score is ranked descending.

Ground truth on synthetic corpora fits per-node diagonal Gaussians on
persist versus separated windows and ranks nodes by a distributional
distance (closed-form Gaussian KL, 2-Wasserstein, or first-moment
distance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import PERSIST, SEPARATED, TrajectoryCorpus, format_rows
from .encoder import EdgePosterior
from .errors import DataError, ParameterError
from .model import ModelParams, encode_windows, mean_posterior

NO_CHANGE_THRESHOLD = 1e-3
# floor of every probability a score divides by or takes the log of
EPS = 1e-8

REGIME_CONTRAST_SCORE = "regime-contrast"
CHANNEL_SCORE = "channel"

KL_METRIC = "kl"
WASSERSTEIN_METRIC = "wasserstein"
EXPECTATION_METRIC = "expectation"
ORACLE_METRICS = (KL_METRIC, WASSERSTEIN_METRIC, EXPECTATION_METRIC)

_VAR_FLOOR = 1e-12


def bernoulli_kl(p_new: np.ndarray, p_old: np.ndarray) -> np.ndarray:
    """KL(B(p_new) || B(p_old)) elementwise; inputs must be in (0, 1)."""
    return p_new * np.log(p_new / p_old) + (1.0 - p_new) * np.log(
        (1.0 - p_new) / (1.0 - p_old)
    )


def _edge_kl(probs: np.ndarray) -> np.ndarray:
    """Per-edge channel divergence for posterior rows [..., 3]."""
    p_hb = np.clip(probs[..., 1], EPS, 1.0 - EPS)
    p_sep = np.clip(probs[..., 2], EPS, 1.0 - EPS)
    return bernoulli_kl(p_sep, p_hb)


def node_scores(posterior: EdgePosterior) -> np.ndarray:
    """Mechanism-change score per node from one posterior.

    score(i) sums KL(B(p_sep) || B(p_hb)) over the incoming edges
    (j -> i); channel probabilities are clipped to [EPS, 1 - EPS]
    before the divergence so no zero can be hit.
    """
    n = posterior.n_nodes
    kl = _edge_kl(posterior.probs)
    off = ~np.eye(n, dtype=bool)
    kl = np.where(off, kl, 0.0)
    return kl.sum(axis=0)


def node_scores_from_flat(probs_flat: np.ndarray, n_nodes: int):
    """Vectorized per-window scores for stacked flat posteriors [S, E, 3]."""
    kl = _edge_kl(probs_flat)
    # receiver-major layout: incoming edges of each node are contiguous
    return kl.reshape(kl.shape[0], n_nodes, n_nodes - 1).sum(axis=2)


def regime_windows(corpus: TrajectoryCorpus):
    """(persist, separated) window indices, or None unless both exist."""
    if corpus.labels is None:
        return None
    persist = corpus.labels.samples_in(PERSIST)
    separated = corpus.labels.samples_in(SEPARATED)
    if not persist or not separated:
        return None
    return persist, separated


def score_kind(corpus: TrajectoryCorpus) -> str:
    """Which score `rca_scores` uses on this corpus."""
    if regime_windows(corpus) is None:
        return CHANNEL_SCORE
    return REGIME_CONTRAST_SCORE


def regime_contrast_scores(
    probs_flat: np.ndarray, n_nodes: int, persist, separated
) -> np.ndarray:
    """score(i) = sum_j KL(Cat(qbar_sep(j->i)) || Cat(qbar_persist(j->i))).

    `probs_flat` stacks per-window posteriors [S, E, 3]; `persist` and
    `separated` index its windows. Each regime's mean posterior is
    clipped at EPS and renormalized, so every KL term is finite and
    identical regime means score exactly 0.
    """

    def regime_mean(idx):
        q = np.maximum(probs_flat[idx].mean(axis=0), EPS)
        return q / q.sum(axis=-1, keepdims=True)

    q_sep = regime_mean(separated)
    q_persist = regime_mean(persist)
    kl = np.sum(q_sep * np.log(q_sep / q_persist), axis=-1)
    # receiver-major layout: incoming edges of each node are contiguous
    return kl.reshape(n_nodes, n_nodes - 1).sum(axis=1)


# -- closed-form distribution distances --------------------------------------


def gaussian_kl(mu1, var1, mu2, var2) -> float:
    """KL(N(mu1, var1) || N(mu2, var2)) for diagonal Gaussians, summed."""
    mu1, var1 = np.atleast_1d(np.asarray(mu1, float)), np.atleast_1d(np.asarray(var1, float))
    mu2, var2 = np.atleast_1d(np.asarray(mu2, float)), np.atleast_1d(np.asarray(var2, float))
    if np.any(var1 <= 0) or np.any(var2 <= 0):
        raise ParameterError("variances must be positive")
    terms = 0.5 * (np.log(var2 / var1) + (var1 + (mu1 - mu2) ** 2) / var2 - 1.0)
    return float(terms.sum())


def wasserstein2_gaussian(mu1, sigma1, mu2, sigma2) -> float:
    """2-Wasserstein distance between diagonal Gaussians (stddev inputs)."""
    mu1, sigma1 = np.atleast_1d(np.asarray(mu1, float)), np.atleast_1d(np.asarray(sigma1, float))
    mu2, sigma2 = np.atleast_1d(np.asarray(mu2, float)), np.atleast_1d(np.asarray(sigma2, float))
    if np.any(sigma1 < 0) or np.any(sigma2 < 0):
        raise ParameterError("standard deviations must be nonnegative")
    w2_sq = np.sum((mu1 - mu2) ** 2) + np.sum((sigma1 - sigma2) ** 2)
    return float(np.sqrt(w2_sq))


def expectation_distance(mu1, mu2) -> float:
    """First-moment distance ||mu1 - mu2||_2."""
    mu1 = np.atleast_1d(np.asarray(mu1, float))
    mu2 = np.atleast_1d(np.asarray(mu2, float))
    return float(np.linalg.norm(mu1 - mu2))


# -- ground-truth oracle -------------------------------------------------------


@dataclass
class GroundTruthOracle:
    """Per-node Gaussian fits on persist vs separated windows."""

    mu_persist: np.ndarray
    var_persist: np.ndarray
    mu_separated: np.ndarray
    var_separated: np.ndarray

    @classmethod
    def fit(cls, corpus: TrajectoryCorpus) -> "GroundTruthOracle":
        regimes = regime_windows(corpus)
        if regimes is None:
            raise DataError(
                "oracle needs at least one persist and one separated window"
            )
        p_idx, s_idx = regimes

        def pooled(idx):
            # [n_windows, N, T, D] -> per node, pooled over windows and steps
            block = corpus.positions[idx]
            flat = block.transpose(1, 0, 2, 3).reshape(corpus.n_atoms, -1, corpus.n_dims)
            mu = flat.mean(axis=1)
            var = np.maximum(flat.var(axis=1), _VAR_FLOOR)
            return mu, var

        mu_p, var_p = pooled(p_idx)
        mu_s, var_s = pooled(s_idx)
        return cls(mu_p, var_p, mu_s, var_s)

    def scores(self, metric: str) -> np.ndarray:
        n = self.mu_persist.shape[0]
        out = np.empty(n)
        for i in range(n):
            if metric == KL_METRIC:
                out[i] = gaussian_kl(
                    self.mu_separated[i], self.var_separated[i],
                    self.mu_persist[i], self.var_persist[i],
                )
            elif metric == WASSERSTEIN_METRIC:
                out[i] = wasserstein2_gaussian(
                    self.mu_persist[i], np.sqrt(self.var_persist[i]),
                    self.mu_separated[i], np.sqrt(self.var_separated[i]),
                )
            elif metric == EXPECTATION_METRIC:
                out[i] = expectation_distance(self.mu_separated[i], self.mu_persist[i])
            else:
                raise ParameterError(f"unknown oracle metric '{metric}'")
        return out

    def top_k(self, metric: str, k: int) -> list:
        return rank_descending(self.scores(metric))[:k]


def rank_descending(scores: np.ndarray) -> list:
    """Node indices sorted by descending score, stable on ties."""
    return list(np.argsort(-np.asarray(scores), kind="stable"))


def ranking_accuracy(model_topk, oracle_topk, k: int = 10) -> float:
    """Top-k overlap fraction |model ∩ oracle| / k."""
    model_topk = list(model_topk)[:k]
    oracle_topk = list(oracle_topk)[:k]
    if len(model_topk) < k or len(oracle_topk) < k:
        raise ParameterError(f"need at least {k} ranked nodes on both sides")
    return len(set(model_topk) & set(oracle_topk)) / k


# -- report --------------------------------------------------------------------


@dataclass
class RcaReport:
    """Descending-sorted node scores plus optional oracle agreement."""

    scores: np.ndarray
    atom_names: list
    k: int
    accuracy: dict = field(default_factory=dict)
    score: str = CHANNEL_SCORE

    @property
    def order(self) -> list:
        return rank_descending(self.scores)

    @property
    def top_k(self) -> list:
        return self.order[: self.k]

    @property
    def no_change_detected(self) -> bool:
        return bool(np.max(self.scores) < NO_CHANGE_THRESHOLD)

    def to_csv(self) -> str:
        """`rank,atom,score` rows, highest score first."""
        order = np.array(self.order)
        return "rank,atom,score\n" + format_rows(
            "%d,%s,%.17g\n", np.arange(1, len(order) + 1),
            np.asarray(self.atom_names, dtype=object)[order], np.asarray(self.scores)[order],
        )


def accuracy_csv(rows: dict) -> str:
    """`oracle_metric,mean,std` summary; undefined entries print 'na'."""
    return "oracle_metric,mean,std\n" + "".join(
        f"{metric},na,na\n" if rows.get(metric) is None
        else format_rows("%s,%.17g,%.17g\n", np.array([(metric, *rows[metric])], dtype=object))
        for metric in ORACLE_METRICS
    )


def aggregate_accuracy(per_seed: list) -> dict:
    """Mean and std per oracle metric across seeds; None stays undefined."""
    rows = {}
    for metric in ORACLE_METRICS:
        vals = [d[metric] for d in per_seed if d.get(metric) is not None]
        if vals:
            rows[metric] = (float(np.mean(vals)), float(np.std(vals)))
        else:
            rows[metric] = None
    return rows


def rca_scores(model: ModelParams, corpus: TrajectoryCorpus):
    """(per-node scores, window-averaged posterior) for a whole corpus.

    Scores come from the eval-mode posterior: the regime contrast when
    the labels hold both persist and separated windows, otherwise the
    channel score per window averaged across windows (`score_kind`
    names which). The averaged posterior is returned for the PCM matrix
    export.
    """
    probs, _ = encode_windows(model, corpus.positions)
    regimes = regime_windows(corpus)
    if regimes is None:
        scores = node_scores_from_flat(probs, corpus.n_atoms).mean(axis=0)
    else:
        scores = regime_contrast_scores(probs, corpus.n_atoms, *regimes)
    return scores, mean_posterior(probs, corpus.n_atoms)


def run_rca(model: ModelParams, corpus: TrajectoryCorpus, k: int = 10):
    """Full RCA pass: scores, report with oracle accuracies, posterior."""
    if k > corpus.n_atoms:
        raise ParameterError(f"k = {k} exceeds node count {corpus.n_atoms}")
    scores, posterior = rca_scores(model, corpus)
    accuracy = {}
    try:
        oracle = GroundTruthOracle.fit(corpus)
    except DataError:
        oracle = None
    model_topk = rank_descending(scores)[:k]
    for metric in ORACLE_METRICS:
        if oracle is None:
            accuracy[metric] = None
        else:
            accuracy[metric] = ranking_accuracy(model_topk, oracle.top_k(metric, k), k)
    report = RcaReport(
        scores=scores, atom_names=list(corpus.atom_names), k=k, accuracy=accuracy,
        score=score_kind(corpus),
    )
    return report, posterior
