import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbrca.corpus import TrajectoryCorpus
from hbrca.errors import ParameterError
from hbrca.metrics import (
    displacement,
    displacement_csv,
    mae,
    mse,
    rmsf_atom_csv,
    rmsf_over_atoms,
    rmsf_over_time,
    rmsf_time_csv,
    sweep_csv,
)


def test_displacement_starts_at_zero(rng):
    traj = rng.normal(size=(4, 9, 3))
    assert displacement(traj)[0] == 0.0


def test_displacement_hand_value():
    traj = np.zeros((1, 2, 3))
    traj[0, 1] = [1.0, 2.0, 2.0]
    assert abs(displacement(traj)[1] - 3.0) < 1e-12


def test_displacement_linear_for_straight_line():
    t = np.arange(10.0)
    traj = np.zeros((1, 10, 3))
    traj[0, :, 0] = 2.0 * t
    d = displacement(traj)
    assert np.allclose(d, 2.0 * t)


def test_rmsf_zero_for_constant_trajectory():
    """Exactly zero, also for a constant whose float time-mean does not
    round-trip (1.7)."""
    for value in (2.5, 1.7):
        traj = np.full((5, 7, 3), value)
        assert np.max(rmsf_over_atoms(traj)) == 0.0, value
        assert np.max(rmsf_over_time(traj)) == 0.0, value


def test_single_atom_oscillation_has_unit_rmsf():
    traj = np.zeros((1, 10, 1))
    traj[0, ::2, 0] = 1.0
    traj[0, 1::2, 0] = -1.0
    assert abs(rmsf_over_time(traj)[0] - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=9))
def test_rmsf_double_sum_identity(seed, n, t):
    """N * sum_t RMSF_t^2 equals T * sum_i RMSF(i)^2 (shared double sum)."""
    traj = np.random.default_rng(seed).normal(size=(n, t, 3))
    lhs = n * float(np.sum(rmsf_over_atoms(traj) ** 2))
    rhs = t * float(np.sum(rmsf_over_time(traj) ** 2))
    assert abs(lhs - rhs) < 1e-9


def test_metrics_translation_invariant(rng):
    traj = rng.normal(size=(3, 8, 3))
    shift = np.array([10.0, -4.0, 2.0])
    assert np.allclose(displacement(traj), displacement(traj + shift))
    assert np.allclose(rmsf_over_atoms(traj), rmsf_over_atoms(traj + shift))
    assert np.allclose(rmsf_over_time(traj), rmsf_over_time(traj + shift))


def test_mse_mae_basics(rng):
    x = rng.normal(size=(2, 3, 4, 3))
    assert mse(x, x) == 0.0
    assert mae(x, x) == 0.0
    y = x + 0.5
    assert abs(mse(y, x) - 0.25) < 1e-12
    assert abs(mae(y, x) - 0.5) < 1e-12
    with pytest.raises(ParameterError):
        mse(x, x[:1])


def test_mse_bounded_on_normalized_domain(rng):
    x = rng.uniform(-1, 1, size=(2, 3, 4, 3))
    y = rng.uniform(-1, 1, size=(2, 3, 4, 3))
    assert mse(x, y) <= 4.0


def test_loss_reconstruction_matches_two_loop_oracle(rng):
    from hbrca.training import loss_reconstruction

    pred = rng.normal(size=(2, 3, 4))
    truth = rng.normal(size=(2, 3, 4))
    acc = 0.0
    count = 0
    for i in range(2):
        for j in range(3):
            for k in range(4):
                acc += (pred[i, j, k] - truth[i, j, k]) ** 2
                count += 1
    assert abs(loss_reconstruction(pred, truth) - acc / count) < 1e-12


def make_corpus(rng, s=2, n=3, t=5, d=3):
    return TrajectoryCorpus(
        positions=rng.normal(size=(s, n, t, d)),
        atom_names=[f"A{i:02d}" for i in range(n)],
    )


def test_sweep_csv_and_perfect_predictor(rng):
    rows = [(10, 4, 0.0, 0.0), (5, 8, 0.0019, 0.0141)]
    content = sweep_csv(rows)
    lines = content.strip().split("\n")
    assert lines[0] == "T,samples,mse,mae"
    assert lines[1].startswith("10,4,0,0")


def test_plot_csv_exports(rng):
    truth = make_corpus(rng)
    pred = make_corpus(rng)
    d = displacement_csv(truth, pred)
    assert d.startswith("sample,t,truth,predicted\n")
    assert "t,truth_mean,predicted_mean" in d
    rt = rmsf_time_csv(truth, pred)
    assert rt.startswith("t,truth,predicted\n")
    ra = rmsf_atom_csv(truth, pred)
    assert ra.splitlines()[1].startswith("A00,")


@pytest.mark.parametrize("shape", [(7, 3, 5, 3), (4, 2, 13, 1), (5, 6, 9, 2), (3, 1, 2, 3)])
def test_stacked_metrics_equal_per_trajectory_bitwise(rng, shape):
    """The CSV exports compute on the whole stack; each row must be the
    single-trajectory result to the last bit."""
    stack = rng.normal(scale=30.0, size=shape)
    stack[0, 0] = 1.7  # one atom that never moves
    for fn in (displacement, rmsf_over_atoms, rmsf_over_time):
        one_by_one = np.stack([fn(traj) for traj in stack])
        assert np.array_equal(fn(stack).view(np.uint64), one_by_one.view(np.uint64))
    with pytest.raises(ParameterError):
        displacement(stack[0, 0])
