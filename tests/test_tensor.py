import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbrca import tensor as T
from hbrca.errors import AbsentGradientError, DimensionError
from hbrca.tensor import Tensor, collect_grads

from conftest import central_difference


def test_sum_gradient_is_ones():
    x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_squared_norm_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.tsum(T.square(x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        T.mul(x, 2.0).backward()


def test_absent_gradient_error():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    T.tsum(T.square(x)).backward()
    with pytest.raises(AbsentGradientError):
        collect_grads({"x": x, "unused": unused})


def test_backward_releases_the_tape(rng):
    """A loss kept after backward() holds no tape: training would otherwise
    keep one step's activations alive through the next step's forward."""
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    loss = T.tsum(T.square(T.mul(x, 2.0)))
    inner = weakref.ref(loss._parents[0].data)
    loss.backward()
    assert loss._parents == () and loss._backward is None
    assert inner() is None
    assert np.allclose(x.grad, 8.0 * x.data)


def test_gradients_accumulate_across_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(T.mul(x, 3.0), T.square(x))  # 3x + x^2 -> dy/dx = 3 + 2x = 7
    y.backward()
    assert np.allclose(x.grad, [7.0])


@pytest.mark.parametrize("op,dom", [
    (lambda x: T.square(T.softmax_rows(x)), (-1.5, 1.5)),
    (T.log, (0.2, 3.0)),
    (T.sqrt, (0.2, 3.0)),
    (T.square, (-2.0, 2.0)),
    (T.absolute, (0.3, 2.0)),
])
def test_pointwise_ops_match_finite_differences(op, dom, rng):
    x0 = rng.uniform(*dom, size=(3, 4))
    x = Tensor(x0.copy(), requires_grad=True)
    T.tsum(op(x)).backward()

    def f(arr):
        return float(op(Tensor(arr)).data.sum())

    fd = central_difference(f, x0.copy())
    assert np.max(np.abs(x.grad - fd)) < 1e-6


def test_composite_graph_matches_finite_differences(rng):
    """Column slices, softmax, segment sums and reductions composed together."""
    n = 4
    x0 = rng.normal(size=(n * (n - 1), 5))
    b0 = rng.normal(size=(1, 5))

    def build(x_arr, b_arr):
        x = Tensor(x_arr, requires_grad=True)
        b = Tensor(b_arr, requires_grad=True)
        y = T.softmax_rows(T.add(x, b))
        agg = T.segment_sum_rows(T.log(T.add(T.cols(y, 1, 4), 0.1)), n - 1)
        loss = T.mul(T.tsum(T.square(agg)), 1.0 / agg.size)
        return loss, x, b

    loss, x, b = build(x0.copy(), b0.copy())
    loss.backward()

    fd_x = central_difference(lambda a: float(build(a, b0.copy())[0].data), x0.copy())
    fd_b = central_difference(lambda a: float(build(x0.copy(), a)[0].data), b0.copy())
    assert np.max(np.abs(x.grad - fd_x)) < 1e-6
    assert np.max(np.abs(b.grad - fd_b)) < 1e-6


def test_broadcast_bias_gradient(rng):
    x0 = rng.normal(size=(5, 3))
    b0 = rng.normal(size=(1, 3))
    x, b = Tensor(x0, requires_grad=True), Tensor(b0.copy(), requires_grad=True)
    T.tsum(T.square(T.add(x, b))).backward()
    fd = central_difference(
        lambda a: float(np.sum((x0 + a) ** 2)), b0.copy()
    )
    assert np.max(np.abs(b.grad - fd)) < 1e-6


def test_sqrt_subgradient_zero_at_zero():
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    T.tsum(T.sqrt(x)).backward()
    assert x.grad[0] == 0.0
    assert np.isclose(x.grad[1], 0.25)


def test_softmax_rows_normalized(rng):
    logits = rng.normal(scale=5.0, size=(20, 3))
    y = T.softmax_rows(Tensor(logits))
    assert np.all(y.data >= 0)
    assert np.max(np.abs(y.data.sum(axis=1) - 1.0)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_segment_sum_matches_loop(rows_per_group, groups, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows_per_group * groups, 3))
    out = T.segment_sum_rows(Tensor(x), rows_per_group).data
    expect = np.array([
        x[g * rows_per_group : (g + 1) * rows_per_group].sum(axis=0)
        for g in range(groups)
    ])
    assert np.allclose(out, expect, atol=1e-12)


def test_finite_guard():
    with pytest.raises(T.NumericalError):
        T.assert_finite(np.array([1.0, np.inf]), "probe")
