"""Latent causal interaction graphs from multi-entity trajectories.

Learns a categorical edge-type posterior (non-causal / bonded /
separation) with a variational encoder-decoder, predicts future states
by k-step rollout, and ranks root-cause nodes of a regime change by
per-node KL divergence between the two learned causal mechanisms.
"""

from .corpus import (
    RegimeLabels,
    SplitSpec,
    TrajectoryCorpus,
    denormalize,
    normalize,
    window,
    window_corpus,
)
from .decoder import DecoderParams, rollout, step
from .encoder import EdgePosterior, EncoderParams, encode, sample_edges
from .layers import AdamState, BatchNorm, Linear, Mlp2, adam_step, gumbel_softmax
from .model import ModelParams, predict_corpus
from .rca import (
    GroundTruthOracle,
    RcaReport,
    expectation_distance,
    gaussian_kl,
    node_scores,
    ranking_accuracy,
    run_rca,
    wasserstein2_gaussian,
)
from .springs import HbCriterion, ScmSpec, label_hb_events, simulate
from .tensor import Tensor
from .training import Checkpoint, TrainConfig, loss_kl, loss_reconstruction, loss_sparsity, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BatchNorm", "Checkpoint", "DecoderParams", "EdgePosterior",
    "EncoderParams", "GroundTruthOracle", "HbCriterion", "Linear", "Mlp2",
    "ModelParams", "RcaReport", "RegimeLabels", "ScmSpec", "SplitSpec",
    "Tensor", "TrainConfig", "TrajectoryCorpus", "adam_step", "denormalize",
    "encode", "expectation_distance", "gaussian_kl", "gumbel_softmax",
    "label_hb_events", "loss_kl", "loss_reconstruction", "loss_sparsity",
    "node_scores", "normalize", "predict_corpus", "ranking_accuracy", "rollout",
    "run_rca", "sample_edges", "simulate", "step", "train", "window", "window_corpus",
]
