import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbrca import tensor as T
from hbrca.encoder import CATEGORICAL_HARD, CONCRETE, EdgePosterior, sample_edges
from hbrca.errors import NumericalError, ParameterError
from hbrca.layers import (
    BN_EPS,
    AdamState,
    BatchNorm,
    Mlp2,
    adam_step,
    decayed_lr,
    gumbel_softmax,
)
from hbrca.tensor import Tensor

from conftest import central_difference, linear_loss


def make_mlp(w1, b1, w2, b2, activation="elu", bn=False):
    m = Mlp2(
        w1=Tensor(np.asarray(w1, float), requires_grad=True),
        b1=Tensor(np.asarray(b1, float).reshape(1, -1), requires_grad=True),
        w2=Tensor(np.asarray(w2, float), requires_grad=True),
        b2=Tensor(np.asarray(b2, float).reshape(1, -1), requires_grad=True),
        activation=activation,
        bn=BatchNorm.create(np.asarray(w2).shape[1]) if bn else None,
    )
    return m


def scalar_elu(v):
    return v if v > 0 else math.exp(v) - 1.0


def test_zero_mlp_maps_to_zero():
    m = make_mlp(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
    y, _ = m.run_rows(np.random.default_rng(0).normal(size=(4, 3)), training=False)
    assert np.array_equal(y, np.zeros((4, 2)))


def test_relu_identity_clips_negative():
    m = make_mlp([[1.0]], [0.0], [[1.0]], [0.0], activation="relu")
    y, _ = m.run_rows(np.array([[-2.0]]), training=False)
    assert y[0, 0] == 0.0


def test_two_unit_elu_matches_scalar_unroll():
    """Hand-set 2-unit net against an element-by-element evaluation."""
    w1 = [[0.3, -0.7], [0.5, 0.2]]
    b1 = [0.1, -0.2]
    w2 = [[1.5, -0.4], [0.6, 0.9]]
    b2 = [-0.3, 0.05]
    x = [0.4, -1.2]
    m = make_mlp(w1, b1, w2, b2, activation="elu")
    y = m.run_rows(np.array([x]), training=False)[0][0]

    h = [scalar_elu(x[0] * w1[0][j] + x[1] * w1[1][j] + b1[j]) for j in range(2)]
    o = [scalar_elu(h[0] * w2[0][j] + h[1] * w2[1][j] + b2[j]) for j in range(2)]
    assert abs(y[0] - o[0]) < 1e-12
    assert abs(y[1] - o[1]) < 1e-12


def test_mlp_gradients_match_finite_differences(rng):
    """Training mode, loss sum(out^2): `backward_rows` against central
    differences for every parameter and for the input rows."""
    m = Mlp2.create(rng, 3, 4, 2, "elu", batch_norm=True)
    x = rng.normal(size=(6, 3))
    params = m.parameters("m")
    bn_mean, bn_var = m.bn.running_mean, m.bn.running_var

    def loss_value(x=x):
        out = float(np.sum(m.run_rows(x, training=True)[0] ** 2))
        m.bn.running_mean, m.bn.running_var = bn_mean, bn_var  # side-effect free
        return out

    out, saved = m.run_rows(x, training=True)
    m.bn.running_mean, m.bn.running_var = bn_mean, bn_var
    g_x = m.backward_rows(2.0 * out, x, saved)
    for name, p in params.items():
        fd = central_difference(lambda a: loss_value(), p.data)
        assert np.max(np.abs(p.grad - fd)) < 1e-5, name
    fd = central_difference(lambda a: loss_value(a), x.copy())
    assert np.max(np.abs(g_x - fd)) < 1e-5


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm.create(3)
    x = rng.normal(loc=2.0, size=(50, 3))
    y_train, _ = bn.normalize(x, training=True)
    assert abs(float(y_train.mean())) < 1e-9  # batch stats center the output
    y_eval, _ = bn.normalize(x.copy(), training=False)
    expect = (x - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
    assert np.allclose(y_eval, expect)


# -- Adam ---------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState()
    adam_step(state, {"p": p}, {"p": np.zeros(2)}, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    """Bias correction makes the first update exactly lr / (1 + eps-term)."""
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState()
    adam_step(state, {"p": p}, {"p": np.array([1.0])}, lr=0.01)
    assert abs(-p.data[0] - 0.01) < 1e-9


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.array([0.0]), requires_grad=True)
    with pytest.raises(NumericalError):
        adam_step(AdamState(), {"p": p}, {"p": np.array([np.nan])}, lr=0.01)
    assert p.data[0] == 0.0


def test_lr_schedule_decays_every_200_epochs():
    assert decayed_lr(5e-4, 0) == 5e-4
    assert decayed_lr(5e-4, 199) == 5e-4
    assert np.isclose(decayed_lr(5e-4, 200), 5e-5)
    assert np.isclose(decayed_lr(5e-4, 450), 5e-6)


# -- Gumbel-softmax -------------------------------------------------------------


def test_dominant_logit_with_zero_noise():
    y = gumbel_softmax(
        Tensor(np.array([[10.0, 0.0, 0.0]])), tau=0.5,
        rng=np.random.default_rng(0), noise=np.zeros((1, 3)),
    )
    assert np.max(np.abs(y.data - [1.0, 0.0, 0.0])) < 1e-8


def test_temperature_must_be_positive():
    with pytest.raises(ParameterError):
        gumbel_softmax(Tensor(np.zeros((1, 3))), tau=0.0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("tau", [math.nan, math.inf, True], ids=["nan", "inf", "True"])
def test_temperature_must_be_a_finite_number(tau):
    """nan gave NaN rows, inf uniform rows and True acted as 1, in both
    sampling modes and through `sample_edges`."""
    logits = np.array([[2.0, 0.0, -1.0]])
    for hard in (False, True):
        with pytest.raises(ParameterError, match="tau"):
            gumbel_softmax(Tensor(logits), tau=tau, rng=np.random.default_rng(0), hard=hard)
    posterior = EdgePosterior.from_flat(np.full((2, 3), 1.0 / 3.0), np.zeros((2, 3)), 2)
    for mode in (CONCRETE, CATEGORICAL_HARD):
        with pytest.raises(ParameterError, match="tau"):
            sample_edges(posterior, tau, mode, np.random.default_rng(0))


def test_hard_mode_frequencies_match_categorical():
    probs = np.array([0.2, 0.3, 0.5])
    logits = np.log(probs)
    draws = 100_000
    rng = np.random.default_rng(7)
    out = gumbel_softmax(
        Tensor(np.tile(logits, (draws, 1))), tau=0.5, rng=rng, hard=True
    )
    freqs = out.mean(axis=0)
    assert np.max(np.abs(freqs - probs)) < 0.01


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.05, max_value=5.0))
def test_concrete_rows_sum_to_one(seed, tau):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=3.0, size=(8, 3))
    y = gumbel_softmax(Tensor(logits), tau=tau, rng=rng)
    assert np.max(np.abs(y.data.sum(axis=-1) - 1.0)) < 1e-9
    assert np.all(y.data >= 0)


def test_gradient_flows_through_concrete_sample(rng):
    logits0 = rng.normal(size=(4, 3))
    noise = rng.gumbel(size=(4, 3))
    logits = Tensor(logits0.copy(), requires_grad=True)
    y = gumbel_softmax(logits, tau=0.5, rng=None, noise=noise)
    linear_loss((y, 2.0 * y.data)).backward()  # d/dy of sum(y**2)

    def f(arr):
        yy = gumbel_softmax(Tensor(arr), tau=0.5, rng=None, noise=noise)
        return float(np.sum(yy.data**2))

    fd = central_difference(f, logits0.copy())
    assert np.max(np.abs(logits.grad - fd)) < 1e-6
