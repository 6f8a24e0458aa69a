import numpy as np
import pytest


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Per-coordinate central finite differences of a scalar function.

    Independent oracle: evaluates f twice per coordinate on perturbed
    copies, never touching the autodiff tape.
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def directional_difference(f, param_data: np.ndarray, direction: np.ndarray,
                           h: float = 1e-5) -> float:
    """Central difference of f along one direction in one parameter."""
    param_data += h * direction
    fp = f()
    param_data -= 2.0 * h * direction
    fm = f()
    param_data += h * direction
    return (fp - fm) / (2.0 * h)


class ReluPatterns:
    """Sign pattern of every ReLU input, as evaluated.

    Every ReLU in the program (the decoder's message and node networks,
    inside its fused step) runs the one kernel
    `hbrca.tensor._relu`, looked up by name at each call. The wrapper records `z > 0` before the kernel
    runs (it may overwrite z in place). Installed with pytest's
    monkeypatch, so the program under test has no hook for it. `take()`
    returns the patterns recorded since the last call, in evaluation order.
    """

    def __init__(self, monkeypatch):
        from hbrca import tensor

        self._patterns = []
        relu = tensor._relu

        def recording_relu(z, out=None):
            self._patterns.append(z > 0.0)
            return relu(z, out=out)

        monkeypatch.setattr(tensor, "_relu", recording_relu)

    def take(self) -> list:
        patterns, self._patterns = self._patterns, []
        return patterns


def _same_patterns(a: list, b: list) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def kink_aware_directional_difference(f, param_data: np.ndarray,
                                      direction: np.ndarray,
                                      patterns: ReluPatterns, h: float = 1e-5):
    """Directional difference that never differences across a ReLU kink.

    Independent oracle like `directional_difference`: it only evaluates
    f on perturbed copies. The ReLU sign patterns seen at x, x + h*v and
    x - h*v decide the stencil: central when both sides match x, the
    one-sided difference on the matching side when only one does (the
    other side's secant crosses a kink and is not a derivative). When
    neither side matches, no stencil at this h measures the derivative
    and the oracle fails. Returns (value, stencil) with stencil one of
    "central", "forward", "backward".
    """
    patterns.take()
    f0 = f()
    at_x = patterns.take()
    param_data += h * direction
    fp = f()
    plus_ok = _same_patterns(at_x, patterns.take())
    param_data -= 2.0 * h * direction
    fm = f()
    minus_ok = _same_patterns(at_x, patterns.take())
    param_data += h * direction
    if plus_ok and minus_ok:
        return (fp - fm) / (2.0 * h), "central"
    if plus_ok:
        return (fp - f0) / h, "forward"
    if minus_ok:
        return (f0 - fm) / h, "backward"
    raise AssertionError(
        f"ReLU pattern changes on both sides of the stencil at h={h:g}"
    )


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
