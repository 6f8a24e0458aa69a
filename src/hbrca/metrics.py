"""Trajectory-quality metrics: displacement, RMSF variants, error tables.

All metrics operate on positions in normalized units and are invariant
under a global translation applied to the trajectory they measure,
since each uses its own reference (first step or per-atom time mean).
"""

from __future__ import annotations

import numpy as np

from .corpus import TrajectoryCorpus, format_rows
from .errors import ParameterError


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


def sweep_csv(rows: list) -> str:
    """`T,samples,mse,mae` rows, one per (T, windows, mse, mae) tuple."""
    return "T,samples,mse,mae\n" + format_rows(
        "%d,%d,%.17g,%.17g\n", np.array(rows, dtype=object)
    )


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
