"""Encoder + decoder bundle and whole-corpus convenience paths.

Evaluation paths here are deliberately chunked with a fixed chunk size:
per-window results are independent in eval mode, so chunking cannot
change any output, only peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import TrajectoryCorpus
from .decoder import DecoderParams, rollout_eval
from .encoder import EdgePosterior, EncoderParams, encode_logits
from .graph import pair_index
from .layers import gumbel_softmax
from .rng import substream

_CHUNK = 128

INIT_SCHEME = "uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases"


@dataclass
class ModelParams:
    encoder: EncoderParams
    decoder: DecoderParams
    arch: dict

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        t_window: int,
        n_dims: int,
        enc_hidden: int = 128,
        dec_hidden: int = 64,
        msg_dim: int = 64,
    ) -> "ModelParams":
        arch = {
            "t_window": t_window,
            "n_dims": n_dims,
            "enc_hidden": enc_hidden,
            "dec_hidden": dec_hidden,
            "msg_dim": msg_dim,
        }
        return cls(
            encoder=EncoderParams.create(rng, t_window * n_dims, enc_hidden),
            decoder=DecoderParams.create(rng, n_dims, dec_hidden, msg_dim),
            arch=arch,
        )

    def parameters(self) -> dict:
        params = self.encoder.parameters("enc")
        params.update(self.decoder.parameters("dec"))
        return params

    def buffers(self) -> dict:
        buffers = self.encoder.buffers("enc")
        buffers.update(self.decoder.buffers("dec"))
        return buffers

    def zero_grads(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()


def encode_windows(model: ModelParams, windows: np.ndarray):
    """Eval-mode posterior probs and logits, [S, E, 3] each."""
    s, n = windows.shape[0], windows.shape[1]
    probs = np.empty((s, n * (n - 1), 3))
    logits = np.empty_like(probs)
    with T.no_grad():
        for lo in range(0, s, _CHUNK):
            hi = min(lo + _CHUNK, s)
            lg = encode_logits(model.encoder, windows[lo:hi], training=False)
            pr = T.softmax_rows(lg)
            logits[lo:hi] = lg.data.reshape(hi - lo, -1, 3)
            probs[lo:hi] = pr.data.reshape(hi - lo, -1, 3)
    return probs, logits


def mean_posterior(probs: np.ndarray, n_nodes: int) -> EdgePosterior:
    """Window-averaged posterior (the exported PCM matrix)."""
    mean = probs.mean(axis=0)
    logits = np.log(np.clip(mean, 1e-300, None))
    return EdgePosterior.from_flat(mean, logits, n_nodes)


def predict_windows(
    model: ModelParams, windows: np.ndarray, tau: float, seed: int
) -> np.ndarray:
    """Hard-edge self-rollout per window; returns [S, N, T-1, D].

    Edge types are drawn once per window from the categorical posterior
    (hard mode), then the decoder feeds itself from the first step.
    """
    s, n, t, d = windows.shape
    probs, logits = encode_windows(model, windows)
    rng = substream(seed, "predict-edges")
    edges = gumbel_softmax(logits.reshape(-1, 3), tau, rng, hard=True)
    edges = edges.reshape(s, -1, 3)
    preds = np.empty((s, n, t - 1, d))
    for lo in range(0, s, _CHUNK):
        hi = min(lo + _CHUNK, s)
        idx = pair_index(n, hi - lo)
        preds[lo:hi] = rollout_eval(
            model.decoder, windows[lo:hi], edges[lo:hi].reshape(-1, 3), idx
        )
    return preds


def eval_mse(model: ModelParams, windows: np.ndarray, tau: float, seed: int) -> float:
    """Path-prediction mean square error over all predicted entries."""
    preds = predict_windows(model, windows, tau, seed)
    return float(np.mean((preds - windows[:, :, 1:, :]) ** 2))


def predict_corpus(
    model: ModelParams, corpus: TrajectoryCorpus, tau: float, seed: int
) -> TrajectoryCorpus:
    """Predicted corpus: step 0 is the observed state, the rest rollout."""
    preds = predict_windows(model, corpus.positions, tau, seed)
    full = np.concatenate([corpus.positions[:, :, :1, :], preds], axis=2)
    return TrajectoryCorpus(
        positions=full,
        atom_names=list(corpus.atom_names),
        dt=corpus.dt,
        normalization_scale=corpus.normalization_scale,
        labels=corpus.labels,
        roles=corpus.roles,
        predicted=True,
    )
