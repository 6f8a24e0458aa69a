"""Trajectory-quality metrics: displacement, RMSF variants, error tables.

All metrics operate on positions in normalized units and are invariant
under a global translation applied to the trajectory they measure,
since each uses its own reference (first step or per-atom time mean).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import TrajectoryCorpus, fmt_float, format_rows
from .errors import ParameterError
from .model import predict_windows


@dataclass
class MetricSeries:
    name: str
    axis: str  # "time" | "atom" | "T-sweep"
    values: np.ndarray


def _check_trajectory(traj: np.ndarray) -> None:
    if traj.ndim not in (3, 4):
        raise ParameterError(f"expected [N, T, D] or [S, N, T, D], got {traj.shape}")


def displacement(traj: np.ndarray) -> np.ndarray:
    """Distance from the first step, averaged over atoms, per step.

    For an [N, T, D] trajectory returns [T]; the per-atom Euclidean
    displacement ||r_t(i) - r_0(i)|| is averaged over atoms so a
    single-atom system reduces to the plain distance. A stack of S
    trajectories [S, N, T, D] gives [S, T], each row bitwise equal to
    that trajectory's own result.
    """
    _check_trajectory(traj)
    per_atom = np.linalg.norm(traj - traj[..., :1, :], axis=-1)
    return per_atom.mean(axis=-2)


def _time_deviation(traj: np.ndarray) -> np.ndarray:
    """r_t(i) - rbar(i), measured from each atom's first step.

    Subtracting r_0(i) before taking the time mean leaves the deviation
    unchanged in exact arithmetic, but makes it exactly 0 for an atom
    that never moves: a float mean such as that of 1.7 repeated does not
    round-trip, while the mean of exact zeros does.
    """
    d = traj - traj[..., :1, :]
    return d - d.mean(axis=-2, keepdims=True)


def rmsf_over_atoms(traj: np.ndarray) -> np.ndarray:
    """Spread across atoms at each step: [T] values ([S, T] for a stack).

    sqrt(mean over atoms of ||r_t(i) - rbar(i)||^2) with rbar(i) the
    time mean of atom i.
    """
    _check_trajectory(traj)
    return np.sqrt((_time_deviation(traj) ** 2).sum(axis=-1).mean(axis=-2))


def rmsf_over_time(traj: np.ndarray) -> np.ndarray:
    """Per-atom fluctuation about its own time mean: [N] values ([S, N])."""
    _check_trajectory(traj)
    return np.sqrt((_time_deviation(traj) ** 2).sum(axis=-1).mean(axis=-1))


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    if pred.shape != truth.shape:
        raise ParameterError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    if pred.shape != truth.shape:
        raise ParameterError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth)))


def gaussian_nll(pred: np.ndarray, truth: np.ndarray, var: float = 5e-5) -> float:
    """Average Gaussian negative log-likelihood at a fixed variance.

    Optional reporting only; the optimized objective stays MSE.
    """
    if var <= 0:
        raise ParameterError("variance must be positive")
    sq = mse(pred, truth)
    return 0.5 * (np.log(2.0 * np.pi * var) + sq / var)


def mse_mae_sweep(checkpoints: dict, corpora: dict, seed: int = 0) -> list:
    """Self-rollout error per window length T.

    `checkpoints` maps T to a loaded Checkpoint and `corpora` maps T to
    the matching windowed test corpus. Rows for which a checkpoint is
    missing are omitted with a warning. Returns rows sorted by
    descending T: (T, n_samples, mse, mae).
    """
    rows = []
    for t in sorted(corpora, reverse=True):
        if t not in checkpoints:
            warnings.warn(f"no checkpoint for T={t}; row omitted")
            continue
        ckpt = checkpoints[t]
        corpus = corpora[t]
        model = ckpt.build_model()
        preds = predict_windows(
            model, corpus.positions, ckpt.config.tau, seed
        )
        truth = corpus.positions[:, :, 1:, :]
        rows.append((t, corpus.n_samples, mse(preds, truth), mae(preds, truth)))
    return rows


def sweep_series(rows: list) -> dict:
    """Sweep rows as named series over the T axis (plot-ready form)."""
    ts = np.array([r[0] for r in rows])
    return {
        "mse": MetricSeries("mse", "T-sweep", np.array([r[2] for r in rows])),
        "mae": MetricSeries("mae", "T-sweep", np.array([r[3] for r in rows])),
        "T": ts,
    }


def sweep_csv(rows: list, path=None) -> str:
    out = io.StringIO()
    out.write("T,samples,mse,mae\n")
    for t, n, m, a in rows:
        out.write(f"{t},{n},{fmt_float(m)},{fmt_float(a)}\n")
    content = out.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    return content


# -- plot-ready exports --------------------------------------------------------


def _column_means(per_sample: np.ndarray) -> np.ndarray:
    """Mean over samples of each column of [S, K], one column at a time.

    A per-column mean sums its S values pairwise; the axis-0 mean of the
    whole array would sum them in sequence, and round differently.
    """
    return np.array([per_sample[:, k].mean() for k in range(per_sample.shape[1])])


def displacement_csv(truth: TrajectoryCorpus, pred: TrajectoryCorpus) -> str:
    """Per-sample displacement series plus the across-sample mean."""
    d_truth = displacement(truth.positions)
    d_pred = displacement(pred.positions)
    s, t = np.indices(d_truth.shape).reshape(2, -1)
    steps = np.arange(truth.n_steps)
    return (
        "sample,t,truth,predicted\n"
        + format_rows("%d,%d,%.17g,%.17g\n", s, t, d_truth.ravel(), d_pred.ravel())
        + "t,truth_mean,predicted_mean\n"
        + format_rows("%d,%.17g,%.17g\n", steps, _column_means(d_truth),
                      _column_means(d_pred))
    )


def rmsf_time_csv(truth: TrajectoryCorpus, pred: TrajectoryCorpus) -> str:
    return "t,truth,predicted\n" + format_rows(
        "%d,%.17g,%.17g\n", np.arange(truth.n_steps),
        _column_means(rmsf_over_atoms(truth.positions)),
        _column_means(rmsf_over_atoms(pred.positions)),
    )


def rmsf_atom_csv(truth: TrajectoryCorpus, pred: TrajectoryCorpus) -> str:
    return "atom,truth,predicted\n" + format_rows(
        "%s,%.17g,%.17g\n", np.asarray(truth.atom_names, dtype=object),
        _column_means(rmsf_over_time(truth.positions)),
        _column_means(rmsf_over_time(pred.positions)),
    )
