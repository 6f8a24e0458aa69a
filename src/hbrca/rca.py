"""Root-cause scoring from a trained edge-type posterior.

A root cause of a persist -> separated regime change is a node whose
incoming causal mechanisms change between the regimes. The score is the
regime contrast (after Budhathoki et al., "Why did the distribution
change?", AISTATS 2021, which attributes a change in the joint
distribution to changes in individual causal mechanisms):

    score(i) = sum_j KL(Cat(qbar_sep(j -> i)) || Cat(qbar_persist(j -> i)))

where qbar_r is the eval-mode edge-type posterior averaged over the
windows of regime r and clipped at EPS. Statistically identical regimes
give identical averages and a score of 0; a fixed asymmetry between the
hb and sep channels, which both regimes share, cancels. Scores are
ranked descending.

A corpus without both regimes (no labels, or one regime only) holds no
change to explain, so every node scores 0 and the run reports no
mechanism change.

Ground truth on synthetic corpora fits per-node diagonal Gaussians on
persist versus separated windows and ranks nodes by a distributional
distance (closed-form Gaussian KL, 2-Wasserstein, or first-moment
distance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import PERSIST, SEPARATED, TrajectoryCorpus, format_rows
from .errors import DataError, ParameterError
from .model import ModelParams, encode_windows, mean_posterior

NO_CHANGE_THRESHOLD = 1e-3
# floor of every probability a score divides by or takes the log of
EPS = 1e-8

KL_METRIC = "kl"
WASSERSTEIN_METRIC = "wasserstein"
EXPECTATION_METRIC = "expectation"
ORACLE_METRICS = (KL_METRIC, WASSERSTEIN_METRIC, EXPECTATION_METRIC)

_VAR_FLOOR = 1e-12


def regime_windows(corpus: TrajectoryCorpus):
    """(persist, separated) window indices, or None unless both exist."""
    if corpus.labels is None:
        return None
    persist = corpus.labels.samples_in(PERSIST)
    separated = corpus.labels.samples_in(SEPARATED)
    if not persist or not separated:
        return None
    return persist, separated


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

    Scores are the regime contrast of the eval-mode posterior. Without
    both persist and separated windows there is no change to explain,
    and every score is 0. Every window is encoded either way, since the
    averaged posterior is returned for the PCM matrix export.
    """
    probs, _ = encode_windows(model, corpus.positions)
    regimes = regime_windows(corpus)
    if regimes is None:
        scores = np.zeros(corpus.n_atoms)
    else:
        scores = regime_contrast_scores(probs, corpus.n_atoms, *regimes)
    return scores, mean_posterior(probs, corpus.n_atoms)


def run_rca(model: ModelParams, corpus: TrajectoryCorpus, k: int = 10):
    """Full RCA pass: scores, report with oracle accuracies, posterior."""
    if k > corpus.n_atoms:
        raise ParameterError(f"k = {k} exceeds node count {corpus.n_atoms}")
    scores, posterior = rca_scores(model, corpus)
    try:
        oracle = GroundTruthOracle.fit(corpus)
    except DataError:  # the corpus lacks a regime
        accuracy = dict.fromkeys(ORACLE_METRICS)
    else:
        model_topk = rank_descending(scores)[:k]
        accuracy = {m: ranking_accuracy(model_topk, oracle.top_k(m, k), k) for m in ORACLE_METRICS}
    report = RcaReport(scores=scores, atom_names=list(corpus.atom_names), k=k, accuracy=accuracy)
    return report, posterior
