"""Composite loss, epoch loop, learning-rate schedule, checkpointing.

The optimized objective is
    lambda_kl * KL(posterior || prior)
  + lambda_rec * reconstruction MSE
  + lambda_sparse * sparsity penalty on the causal channels,
with concrete edge samples during training and hard categorical samples
for validation. KL and sparsity are summed over ordered pairs and
averaged over the batch; the reconstruction term is the mean squared
error over predicted entries.
"""

from __future__ import annotations

import base64
import copy
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import SplitSpec, TrajectoryCorpus, corpus_hash, fmt_float, split_windows
from .decoder import rollout_train
from .encoder import EdgePosterior, encode_logits
from .errors import ConfigError, NumericalError, ParameterError
from .graph import pair_index
from .layers import AdamState, adam_step, decayed_lr, gumbel_softmax
from .model import INIT_SCHEME, ModelParams, eval_mse
from .rng import substream
from .tensor import collect_grads

L1 = "l1"
GROUP_LASSO = "group-lasso"

CHECKPOINT_FORMAT = "hbrca-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the prediction phase."""

    tau: float = 0.5
    lr: float = 5e-5
    prior: tuple = (0.2, 0.4, 0.4)
    k: int = 1
    lambda_kl: float = 1.0
    lambda_rec: float = 0.1
    lambda_sparse: float = 0.001
    epochs: int = 300
    batch_size: int = 32
    seed: int = 0
    sparsity_mode: str = L1

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError("tau must be positive")
        if min(self.lambda_kl, self.lambda_rec, self.lambda_sparse) <= 0:
            raise ParameterError("lambda_kl, lambda_rec and lambda_sparse must be positive")
        prior = tuple(float(p) for p in self.prior)
        if len(prior) != 3 or min(prior) <= 0:
            raise ParameterError("prior must be three positive entries")
        if abs(sum(prior) - 1.0) > 1e-9:
            raise ParameterError(f"prior sums to {sum(prior)}, expected 1")
        self.prior = prior
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.sparsity_mode not in (L1, GROUP_LASSO):
            raise ParameterError(f"unknown sparsity mode '{self.sparsity_mode}'")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")

    @classmethod
    def prediction(cls, t_window: int, **overrides) -> "TrainConfig":
        """Prediction-phase defaults: lr 5e-5, prior [0.2, 0.4, 0.4], k = T."""
        base = dict(
            tau=0.5, lr=5e-5, prior=(0.2, 0.4, 0.4), k=t_window,
            lambda_kl=1.0, lambda_rec=0.1, lambda_sparse=0.001,
            epochs=300, sparsity_mode=L1,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def rca(cls, **overrides) -> "TrainConfig":
        """RCA-phase defaults: lr 5e-4, prior [0.9, 0.05, 0.05], k = 3."""
        base = dict(
            tau=0.5, lr=5e-4, prior=(0.9, 0.05, 0.05), k=3,
            lambda_kl=1.0, lambda_rec=0.1, lambda_sparse=0.001,
            epochs=100, sparsity_mode=GROUP_LASSO,
        )
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        return {
            "tau": self.tau, "lr": self.lr, "prior": list(self.prior), "k": self.k,
            "lambda_kl": self.lambda_kl, "lambda_rec": self.lambda_rec,
            "lambda_sparse": self.lambda_sparse, "epochs": self.epochs,
            "batch_size": self.batch_size, "seed": self.seed,
            "sparsity_mode": self.sparsity_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = set(cls().to_dict())
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown training keys {sorted(unknown)}")
        merged = cls().to_dict()
        merged.update(d)
        merged["prior"] = tuple(merged["prior"])
        return cls(**merged)


# -- loss terms (public numeric forms) ---------------------------------------


def _posterior_rows(posterior) -> np.ndarray:
    if isinstance(posterior, EdgePosterior):
        n = posterior.n_nodes
        off = ~np.eye(n, dtype=bool)
        return posterior.probs[off]
    rows = np.asarray(posterior, dtype=float)
    return rows.reshape(-1, rows.shape[-1])


def loss_kl(posterior, prior) -> float:
    """Sum over ordered pairs of the categorical KL to the prior.

    0 * log 0 counts as 0; a zero prior entry is rejected.
    """
    prior = np.asarray(prior, dtype=float)
    if np.any(prior <= 0):
        raise ParameterError("prior entries must be strictly positive")
    q = _posterior_rows(posterior)
    ratio = np.where(q > 0, q / prior, 1.0)
    return float(np.sum(np.where(q > 0, q * np.log(ratio), 0.0)))


def loss_reconstruction(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over predicted steps, atoms and dims."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ParameterError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


def loss_sparsity(posterior, mode: str) -> float:
    """L1 or group-lasso penalty on the two causal channels."""
    q = _posterior_rows(posterior)
    if mode == L1:
        return float(np.sum(np.abs(q[:, 1] + q[:, 2])))
    if mode == GROUP_LASSO:
        return float(np.sum(np.sqrt(q[:, 1] ** 2 + q[:, 2] ** 2)))
    raise ParameterError(f"unknown sparsity mode '{mode}'")


# -- loss graph ---------------------------------------------------------------


def composite_loss(
    model: ModelParams,
    windows: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
    training: bool = True,
):
    """Differentiable total loss for one window batch.

    `noise` freezes the Gumbel draw (gradient checks); otherwise `rng`
    supplies it. Returns (loss tensor, float parts for logging).
    """
    b, n, t, d = windows.shape
    idx = pair_index(n, b)
    logits = encode_logits(model.encoder, windows, training=training)
    q = T.softmax_rows(logits)
    log_prior = np.log(np.asarray(config.prior))
    kl = T.tsum(T.mul(q, T.sub(T.log(q), log_prior)))
    kl = T.mul(kl, 1.0 / b)
    edges = gumbel_softmax(logits, config.tau, rng, noise=noise)
    preds = rollout_train(model.decoder, windows, edges, config.k, idx)
    total_sq = None
    for step_i, mu in enumerate(preds, start=1):
        target = windows[:, :, step_i, :].reshape(b * n, d)
        sq = T.tsum(T.square(T.sub(mu, target)))
        total_sq = sq if total_sq is None else T.add(total_sq, sq)
    rec = T.mul(total_sq, 1.0 / ((t - 1) * b * n * d))
    q1 = T.cols(q, 1, 2)
    q2 = T.cols(q, 2, 3)
    if config.sparsity_mode == L1:
        sparse = T.tsum(T.absolute(T.add(q1, q2)))
    else:
        sparse = T.tsum(T.sqrt(T.add(T.square(q1), T.square(q2))))
    sparse = T.mul(sparse, 1.0 / b)
    loss = T.add(
        T.add(T.mul(kl, config.lambda_kl), T.mul(rec, config.lambda_rec)),
        T.mul(sparse, config.lambda_sparse),
    )
    parts = {
        "kl": float(kl.data),
        "reconstruction": float(rec.data),
        "sparsity": float(sparse.data),
        "total": float(loss.data),
    }
    return loss, parts


# -- checkpoints --------------------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(obj["shape"]).copy()


@dataclass
class Checkpoint:
    """Versioned container for a trained model and its provenance."""

    params: dict
    buffers: dict
    adam: dict
    epoch: int
    best_val_mse: float
    config: TrainConfig
    corpus_hash: str
    seed: int
    arch: dict
    atom_names: list
    normalization_scale: float = 1.0
    history: list = field(default_factory=list)
    init_scheme: str = INIT_SCHEME

    def build_model(self) -> ModelParams:
        rng = np.random.default_rng(0)
        model = ModelParams.create(
            rng,
            t_window=self.arch["t_window"],
            n_dims=self.arch["n_dims"],
            enc_hidden=self.arch["enc_hidden"],
            dec_hidden=self.arch["dec_hidden"],
            msg_dim=self.arch["msg_dim"],
        )
        params = model.parameters()
        if set(params) != set(self.params):
            raise ConfigError("checkpoint parameter names do not match architecture")
        for name, tensor in params.items():
            if tensor.data.shape != self.params[name].shape:
                raise ConfigError(f"checkpoint shape mismatch for '{name}'")
            tensor.data = self.params[name].copy()
        buffers = model.buffers()
        for name, arr in buffers.items():
            arr[...] = self.buffers[name]
        return model

    def save(self, path) -> None:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "params": {k: _encode_array(v) for k, v in sorted(self.params.items())},
            "buffers": {k: _encode_array(v) for k, v in sorted(self.buffers.items())},
            "adam": {
                "step": self.adam["step"],
                "m": {k: _encode_array(v) for k, v in sorted(self.adam["m"].items())},
                "v": {k: _encode_array(v) for k, v in sorted(self.adam["v"].items())},
            },
            "epoch": self.epoch,
            "best_val_mse": self.best_val_mse,
            "config": self.config.to_dict(),
            "corpus_hash": self.corpus_hash,
            "seed": self.seed,
            "arch": self.arch,
            "atom_names": self.atom_names,
            "normalization_scale": self.normalization_scale,
            "history": self.history,
            "init_scheme": self.init_scheme,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"not a checkpoint file: {path}")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {doc.get('version')}")
        return cls(
            params={k: _decode_array(v) for k, v in doc["params"].items()},
            buffers={k: _decode_array(v) for k, v in doc["buffers"].items()},
            adam={
                "step": doc["adam"]["step"],
                "m": {k: _decode_array(v) for k, v in doc["adam"]["m"].items()},
                "v": {k: _decode_array(v) for k, v in doc["adam"]["v"].items()},
            },
            epoch=doc["epoch"],
            best_val_mse=doc["best_val_mse"],
            config=TrainConfig.from_dict(doc["config"]),
            corpus_hash=doc["corpus_hash"],
            seed=doc["seed"],
            arch=doc["arch"],
            atom_names=doc["atom_names"],
            normalization_scale=doc["normalization_scale"],
            history=doc["history"],
            init_scheme=doc.get("init_scheme", INIT_SCHEME),
        )


def _snapshot(model: ModelParams, adam: AdamState) -> tuple:
    params = {k: v.data.copy() for k, v in model.parameters().items()}
    buffers = {k: v.copy() for k, v in model.buffers().items()}
    adam_copy = {
        "step": adam.step,
        "m": copy.deepcopy(adam.m),
        "v": copy.deepcopy(adam.v),
    }
    return params, buffers, adam_copy


def write_metrics_csv(history: list, path) -> None:
    out = io.StringIO()
    out.write("epoch,train_loss,val_mse,lr\n")
    for row in history:
        out.write(
            f"{row['epoch']},{fmt_float(row['train_loss'])},"
            f"{fmt_float(row['val_mse'])},{fmt_float(row['lr'])}\n"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())


def train(
    config: TrainConfig,
    corpus: TrajectoryCorpus,
    split: SplitSpec | None = None,
    log=None,
) -> Checkpoint:
    """Optimize the composite loss; returns the best-validation checkpoint.

    Checkpoints are taken whenever validation MSE improves; learning
    rate decays by 0.1 every 200 epochs. A non-finite loss or gradient
    aborts the run and returns the last good checkpoint.
    """
    if split is None:
        split = SplitSpec(seed=config.seed)
    train_idx, val_idx, _ = split_windows(corpus, split)
    if len(train_idx) == 0:
        raise ParameterError("empty training split")
    if len(val_idx) == 0:
        val_idx = train_idx
    digest = corpus_hash(corpus)
    windows = corpus.positions
    init_rng = substream(config.seed, "init")
    model = ModelParams.create(init_rng, corpus.n_steps, corpus.n_dims)
    adam = AdamState()
    params = model.parameters()
    best = None
    best_mse = float("inf")
    history = []

    def make_checkpoint() -> Checkpoint:
        p, bufs, ad = _snapshot(model, adam)
        return Checkpoint(
            params=p, buffers=bufs, adam=ad,
            epoch=epoch, best_val_mse=best_mse, config=config,
            corpus_hash=digest, seed=config.seed, arch=dict(model.arch),
            atom_names=list(corpus.atom_names),
            normalization_scale=corpus.normalization_scale,
            history=list(history),
        )

    epoch = -1
    for epoch in range(config.epochs):
        lr = decayed_lr(config.lr, epoch)
        order = substream(config.seed, "shuffle", epoch).permutation(train_idx)
        epoch_loss = 0.0
        n_batches = 0
        try:
            for b0 in range(0, len(order), config.batch_size):
                batch = windows[order[b0 : b0 + config.batch_size]]
                rng = substream(config.seed, "gumbel", epoch, b0)
                model.zero_grads()
                loss, parts = composite_loss(model, batch, config, rng=rng)
                if not np.isfinite(parts["total"]):
                    raise NumericalError(f"non-finite loss at epoch {epoch}")
                loss.backward()
                adam_step(adam, params, collect_grads(params), lr)
                epoch_loss += parts["total"]
                n_batches += 1
        except NumericalError as exc:
            if best is not None:
                if log:
                    log(f"aborted: {exc}; returning last good checkpoint")
                best.history = list(history)
                return best
            raise
        val_mse = eval_mse(
            model, windows[val_idx], config.tau, substream(config.seed, "val").integers(2**63)
        )
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / max(n_batches, 1),
                "val_mse": val_mse,
                "lr": lr,
            }
        )
        if log:
            log(
                f"epoch {epoch}: loss {epoch_loss / max(n_batches, 1):.6f} "
                f"val_mse {val_mse:.6f} lr {lr:g}"
            )
        if val_mse < best_mse:
            best_mse = val_mse
            best = make_checkpoint()
    if best is None:
        raise NumericalError("training produced no finite validation checkpoint")
    best.history = list(history)
    return best
