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
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .corpus import SplitSpec, TrajectoryCorpus, _split_indices, corpus_hash, format_rows
from .decoder import rollout_train
from .encoder import EdgePosterior, encode_logits
from .errors import ConfigError, DataError, NumericalError, ParameterError, check_number
from .graph import pair_index
from .layers import AdamState, adam_step, decayed_lr, gumbel_softmax
from .model import INIT_SCHEME, ModelParams, eval_mse
from .rng import substream
from .tensor import collect_grads

L1 = "l1"
GROUP_LASSO = "group-lasso"

CHECKPOINT_FORMAT = "hbrca-checkpoint"
CHECKPOINT_VERSION = 2


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
        for name in ("k", "epochs", "batch_size"):
            check_number(name, getattr(self, name), integer=True, minimum=1)
        check_number("seed", self.seed, integer=True, minimum=0)
        for name in ("tau", "lr", "lambda_kl", "lambda_rec", "lambda_sparse"):
            check_number(name, getattr(self, name), minimum=0, above=True)
        prior = tuple(float(check_number("prior", p, minimum=0, above=True))
                      for p in self.prior)
        if len(prior) != 3:
            raise ParameterError("prior must be three positive entries")
        if abs(sum(prior) - 1.0) > 1e-9:
            raise ParameterError(f"prior sums to {sum(prior)}, expected 1")
        self.prior = prior
        if self.sparsity_mode not in (L1, GROUP_LASSO):
            raise ParameterError(f"unknown sparsity mode '{self.sparsity_mode}'")

    @classmethod
    def prediction(cls, t_window: int, **overrides) -> "TrainConfig":
        """Prediction-phase table: the class defaults, with k = T."""
        return cls(**{"k": t_window, **overrides})

    @classmethod
    def rca(cls, **overrides) -> "TrainConfig":
        """RCA-phase table: lr 5e-4, prior [0.9, 0.05, 0.05], k = 3, group
        lasso, 100 epochs; the rest are the class defaults."""
        return cls(**{"lr": 5e-4, "prior": (0.9, 0.05, 0.05), "k": 3, "epochs": 100,
                      "sparsity_mode": GROUP_LASSO, **overrides})

    def to_dict(self) -> dict:
        return dict(asdict(self), prior=list(self.prior))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown training keys {sorted(unknown)}")
        return cls(**d)


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
):
    """Differentiable total loss for one window batch.

    `noise` freezes the Gumbel draw (gradient checks); otherwise `rng`
    supplies it. Returns (loss tensor, float parts for logging).

    The tape holds four nodes: the encoder's logits, the Gumbel draw, the
    decoder's rollout, and the loss head over the logits and the
    predictions. The head computes the posterior q = softmax(logits), the
    KL, the per-step squared-error sums (added in time order), the
    sparsity term and the weighted total. Its backward is the op-by-op
    chain's: q's gradient adds the KL product's term, then the KL log's
    (g q) / q, then the two zero-padded sparsity columns; |x| takes sign(x),
    and the square root's subgradient is 0 at 0.
    """
    b, n, t, d = windows.shape
    idx = pair_index(n, b)
    logits = encode_logits(model.encoder, windows, training=True)
    edges = gumbel_softmax(logits, config.tau, rng, noise=noise)
    preds = rollout_train(model.decoder, windows, edges, config.k, idx)

    inv_b = 1.0 / b
    q = T._softmax(logits.data)
    log_ratio = np.log(q) - np.log(np.asarray(config.prior))
    kl = (q * log_ratio).sum() * inv_b
    targets = windows[:, :, 1:, :].transpose(2, 0, 1, 3).reshape(t - 1, b * n, d)
    diff = preds.data - targets
    step_sq = [(step_diff * step_diff).sum() for step_diff in diff]
    total_sq = step_sq[0]
    for sq in step_sq[1:]:
        total_sq = total_sq + sq
    rec_scale = 1.0 / ((t - 1) * b * n * d)
    rec = total_sq * rec_scale
    q1, q2 = q[:, 1:2], q[:, 2:3]
    if config.sparsity_mode == L1:
        pair_sum = q1 + q2
        sparse = np.abs(pair_sum).sum() * inv_b
    else:
        square_sum = q1 * q1 + q2 * q2
        root = np.sqrt(square_sum)
        sparse = root.sum() * inv_b
    loss = (kl * config.lambda_kl + rec * config.lambda_rec) + sparse * config.lambda_sparse

    def backward(g):
        g_kl = (g * config.lambda_kl) * inv_b
        g_q = g_kl * log_ratio
        g_q += (g_kl * q) / q
        g_sparse = (g * config.lambda_sparse) * inv_b
        if config.sparsity_mode == L1:
            g_pair = g_sparse * np.sign(pair_sum)
            g_q1 = g_q2 = g_pair
        else:
            denom = 2.0 * root
            g_pair = np.where(square_sum > 0.0, g_sparse / np.where(denom > 0.0, denom, 1.0), 0.0)
            g_q1, g_q2 = (2.0 * g_pair) * q1, (2.0 * g_pair) * q2
        g_q[:, 1:2] += g_q1
        g_q[:, 2:3] += g_q2
        # the chain added two zero-padded columns, which turns -0.0 into +0.0
        g_q += 0.0
        logits._accumulate(T._softmax_backward(g_q, q), owned=True)
        preds._accumulate((2.0 * ((g * config.lambda_rec) * rec_scale)) * diff, owned=True)

    loss_t = T.node(np.asarray(loss), (logits, preds), backward)
    parts = {
        "kl": float(kl),
        "reconstruction": float(rec),
        "sparsity": float(sparse),
        "total": float(loss),
    }
    return loss_t, parts


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
    """Versioned container for a trained model and its provenance.

    It holds what inference needs and nothing to resume training from:
    no optimizer state is kept.
    """

    params: dict
    buffers: dict
    epoch: int
    best_val_mse: float
    config: TrainConfig
    corpus_hash: str
    arch: dict
    atom_names: list
    normalization_scale: float = 1.0
    history: list = field(default_factory=list)
    init_scheme: str = INIT_SCHEME

    def build_model(self) -> ModelParams:
        try:
            model = ModelParams.create(np.random.default_rng(0), **self.arch)
        except TypeError as exc:
            raise DataError(f"checkpoint architecture {self.arch}: {exc}") from exc
        params, buffers = model.parameters(), model.buffers()
        if set(params) != set(self.params) or set(buffers) != set(self.buffers):
            raise DataError("checkpoint parameter names do not match architecture")
        for name, tensor in params.items():
            if tensor.data.shape != self.params[name].shape:
                raise DataError(f"checkpoint shape mismatch for '{name}'")
            tensor.data = self.params[name].copy()
        for name, arr in buffers.items():
            if arr.shape != self.buffers[name].shape:
                raise DataError(f"checkpoint shape mismatch for '{name}'")
            arr[...] = self.buffers[name]
        return model

    def save(self, path) -> None:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "params": {k: _encode_array(v) for k, v in sorted(self.params.items())},
            "buffers": {k: _encode_array(v) for k, v in sorted(self.buffers.items())},
            "epoch": self.epoch,
            "best_val_mse": self.best_val_mse,
            "config": self.config.to_dict(),
            "corpus_hash": self.corpus_hash,
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
        """Read a checkpoint; any fault in the file is a DataError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise DataError(f"not a checkpoint file: {path} ({exc})") from exc
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"not a checkpoint file: {path}")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise DataError(
                f"checkpoint version {doc.get('version')!r} is not supported; this "
                f"build reads version {CHECKPOINT_VERSION} (retrain to write one)"
            )
        try:
            return cls(
                params={k: _decode_array(v) for k, v in doc["params"].items()},
                buffers={k: _decode_array(v) for k, v in doc["buffers"].items()},
                epoch=doc["epoch"],
                best_val_mse=doc["best_val_mse"],
                config=TrainConfig.from_dict(doc["config"]),
                corpus_hash=doc["corpus_hash"],
                arch=doc["arch"],
                atom_names=doc["atom_names"],
                normalization_scale=doc["normalization_scale"],
                history=doc["history"],
                init_scheme=doc.get("init_scheme", INIT_SCHEME),
            )
        except (LookupError, TypeError, ValueError, ConfigError, ParameterError) as exc:
            raise DataError(f"malformed checkpoint {path}: {exc!r}") from exc


def write_metrics_csv(history: list, path) -> None:
    """Write `epoch,train_loss,val_mse,lr`, one row per epoch of `history`."""
    keys = ("epoch", "train_loss", "val_mse", "lr")
    values = np.array([[row[k] for k in keys] for row in history], dtype=object)
    content = ",".join(keys) + "\n" + format_rows("%d,%.17g,%.17g,%.17g\n", values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


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
    digest = corpus_hash(corpus)
    train_idx, val_idx, _ = _split_indices(corpus.n_samples, split, digest)
    if len(train_idx) == 0:
        raise ConfigError(
            f"'split' leaves no training windows: train fraction {split.train} "
            f"of {corpus.n_samples} windows"
        )
    if len(val_idx) == 0:
        val_idx = train_idx
    windows = corpus.positions
    init_rng = substream(config.seed, "init")
    model = ModelParams.create(init_rng, corpus.n_steps, corpus.n_dims)
    adam = AdamState()
    params = model.parameters()
    best = None
    best_mse = float("inf")
    history = []

    def make_checkpoint() -> Checkpoint:
        return Checkpoint(
            params={k: v.data.copy() for k, v in model.parameters().items()},
            buffers={k: v.copy() for k, v in model.buffers().items()},
            epoch=epoch, best_val_mse=best_mse, config=config,
            corpus_hash=digest, arch=dict(model.arch),
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
