"""Reusable synthetic experiment builders.

These assemble the corpora behind the recovery, trend and degeneracy
experiments driven by the scripts and the acceptance suite, and run the
trend's sweep over window lengths. The graph
shapes are chosen so every dynamic is stationary per regime: static
wall nodes anchor spring-bound mobiles, and an intervention weakens or
removes the binding of the change-set nodes at the trajectory midpoint.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .corpus import SplitSpec, TrajectoryCorpus, normalize, split_windows, window_corpus
from .errors import ParameterError
from .metrics import mae, mse
from .model import predict_windows
from .rca import run_rca
from .springs import EDGE_ATTRACT, EDGE_SWITCHED, ScmSpec, simulate
from .training import TrainConfig, train


# tuned alongside the recovery corpus; k, prior and the epoch budget stay
# at their RCA-phase table values while the reconstruction weight (an
# explicitly tunable knob) is raised so causal edges can survive the
# strong non-causal prior on max-abs-normalized data
RECOVERY_LAMBDA_REC = 3000.0
RECOVERY_T_TOTAL = 800
RECOVERY_T_WINDOW = 5
RECOVERY_TOP_K = 2  # the change set's size
TREND_T_TOTAL = 10_000
TREND_T_VALUES = (50, 25, 10, 5)


def recovery_config(seed: int) -> "TrainConfig":
    return TrainConfig.rca(seed=seed, lambda_rec=RECOVERY_LAMBDA_REC)


def rca_recovery_spec(
    seed: int,
    n_nodes: int = 10,
    bound_nodes=(4, 5),
    change_set=(4, 5),
    k_bound: float = 19.7,
    k_loose: float = 5.0,
    noise_std: float = 0.2,
    step_size: float = 0.1,
) -> ScmSpec:
    """Spring system with a binding switch on the change-set nodes.

    All nodes except the bound ones form a static scaffold (their
    per-regime distributions are exactly unchanged, so the ground-truth
    oracle assigns them zero). Each bound node hangs off one scaffold
    anchor by a strongly under-damped spring, swinging well above the
    noise floor; change-set springs switch to the loose constant at the
    boundary, which both changes the stationary variance (oracle signal)
    and changes which message function explains the edge (model signal).
    """
    bound_nodes = tuple(bound_nodes)
    change_set = set(change_set)
    if not change_set <= set(bound_nodes):
        raise ParameterError("change-set nodes must be spring-bound")
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n_nodes, n_nodes), dtype=int)
    statics = set(range(n_nodes)) - set(bound_nodes)
    anchors = sorted(statics)[: len(bound_nodes)]
    init = rng.normal(0.0, 0.4, size=(n_nodes, 3))
    for slot, (anchor, node) in enumerate(zip(anchors, bound_nodes)):
        adjacency[anchor, node] = EDGE_ATTRACT
        # spread anchors apart so spring excursions are visible on the
        # normalized scale
        init[anchor] = rng.normal(0.0, 0.05, size=3)
        init[anchor, 0] += 0.9 if slot % 2 == 0 else -0.9
        init[node] = init[anchor] + rng.normal(0.0, 0.02, size=3)
    return ScmSpec(
        n_nodes=n_nodes,
        n_dims=3,
        adjacency=adjacency,
        k_attract=k_bound,
        k_switch=k_loose,
        noise_std=noise_std,
        step_size=step_size,
        change_set=change_set,
        static_nodes=statics,
        init_positions=init,
    )


def build_rca_corpus(spec: ScmSpec, seed: int) -> TrajectoryCorpus:
    long_corpus, _ = simulate(spec, RECOVERY_T_TOTAL, seed)
    return normalize(window_corpus(long_corpus, RECOVERY_T_WINDOW))


def rca_recovery_run(seed: int, spec_kwargs: dict | None = None):
    """Train with the RCA recipe and compare top-2 sets to the oracles.

    Returns (accuracy dict per oracle metric, model scores,
    window-averaged posterior, spec), the first three from `run_rca`.
    """
    spec = rca_recovery_spec(seed, **(spec_kwargs or {}))
    corpus = build_rca_corpus(spec, seed)
    checkpoint = train(recovery_config(seed), corpus, SplitSpec(seed=seed))
    ranking, posterior = run_rca(checkpoint.build_model(), corpus, k=RECOVERY_TOP_K)
    return ranking.accuracy, ranking.scores, posterior, spec


def trend_spec(seed: int) -> ScmSpec:
    """Stationary 5-node spring system without interventions (prediction runs).

    Two walls (0, 1), two strongly bound mobiles (2, 3) and one loosely
    bound mobile (4) give the predictor both easy and hard targets.
    """
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((5, 5), dtype=int)
    adjacency[0, 2] = EDGE_ATTRACT
    adjacency[1, 3] = EDGE_ATTRACT
    adjacency[0, 4] = EDGE_SWITCHED
    init = rng.normal(0.0, 0.15, size=(5, 3))
    init[0, 0] += 0.9
    init[1, 0] -= 0.9
    for mobile, wall in ((2, 0), (3, 1), (4, 0)):
        init[mobile] = init[wall] + rng.normal(0.0, 0.02, size=3)
    return ScmSpec(
        n_nodes=5,
        n_dims=3,
        adjacency=adjacency,
        k_attract=19.0,
        k_switch=1.0,
        noise_std=0.15,
        step_size=0.1,
        static_nodes={0, 1},
        init_positions=init,
    )


def build_trend_corpus(seed: int) -> TrajectoryCorpus:
    """One long trajectory, normalized; callers window it per T."""
    long_corpus, _ = simulate(trend_spec(seed), TREND_T_TOTAL, seed)
    return normalize(long_corpus)


def prediction_trend(epochs: int, log=None) -> list:
    """Test error per window length T on one long trend corpus.

    For each T in TREND_T_VALUES, windows the seed-11 corpus, trains a
    prediction-phase model and self-rolls it out over the test windows
    (edge draws seeded 77). Returns rows (T, windows, mse, mae) by
    descending T; `log` gets each row as it is done.
    """
    long_corpus = build_trend_corpus(seed=11)
    split = SplitSpec(seed=11)
    rows = []
    for t_window in sorted(TREND_T_VALUES, reverse=True):
        corpus = window_corpus(long_corpus, t_window)
        config = TrainConfig.prediction(t_window, epochs=epochs, seed=11)
        model = train(config, corpus, split).build_model()
        test = corpus.positions[split_windows(corpus, split)[2]]
        preds = predict_windows(model, test, config.tau, seed=77)
        truth = test[:, :, 1:, :]
        rows.append((t_window, corpus.n_samples, mse(preds, truth), mae(preds, truth)))
        if log:
            log(rows[-1])
    return rows


def degenerate_spec(seed: int) -> ScmSpec:
    """No intervention anywhere: both halves share every mechanism. The
    midpoint boundary only labels the windows, so that the RCA pipeline
    sees both regimes."""
    return replace(rca_recovery_spec(seed, change_set=()), boundary_step=RECOVERY_T_TOTAL // 2)


def build_degenerate_corpus(seed: int) -> TrajectoryCorpus:
    """Statistically identical persist/separated halves: the recovery
    corpus's scaffold and springs without a change set."""
    return build_rca_corpus(degenerate_spec(seed), seed)
