"""Self-test of the numpy reference comparison.

    python3 perfbench/selftest.py

Trains a small model for one epoch, then shows that the comparison the
workloads run
  * passes on the trained parameters,
  * still passes when every hidden layer's units are permuted (the same
    function with its sums taken in another order),
  * fails when any single parameter or batch-norm buffer is perturbed
    by a relative 1e-5.
Exits 0 when all three hold.
"""

import sys

import run  # pins BLAS threads before numpy loads

import numpy as np  # noqa: E402

import reference  # noqa: E402

PERTURBATION = 1e-5


def permute_hidden(params: dict, seed: int) -> dict:
    """Same network, hidden units of every two-layer perceptron reordered."""
    out = dict(params)
    rng = np.random.default_rng(seed)
    for name in params:
        if name.endswith(".w1"):
            prefix = name[: -len(".w1")]
            perm = rng.permutation(params[name].shape[1])
            out[f"{prefix}.w1"] = params[f"{prefix}.w1"][:, perm]
            out[f"{prefix}.b1"] = params[f"{prefix}.b1"][:, perm]
            out[f"{prefix}.w2"] = params[f"{prefix}.w2"][perm, :]
    return out


def perturbed(arrays: dict, name: str, seed: int) -> dict:
    out = dict(arrays)
    a = arrays[name]
    sign = np.where(np.random.default_rng(seed).random(a.shape) < 0.5, -1.0, 1.0)
    out[name] = a + PERTURBATION * sign * np.maximum(np.abs(a), 1.0)
    return out


def main() -> int:
    hb = run.import_hbrca()
    seed = 3
    long_corpus, _ = hb.springs.simulate(hb.experiments.trend_spec(seed), 600, seed)
    corpus = hb.corpus.normalize(hb.corpus.window_corpus(long_corpus, 6))
    config = hb.training.TrainConfig.prediction(6, epochs=1, seed=seed)
    model = hb.training.train(config, corpus).build_model()
    windows = corpus.positions[:8]
    params, buffers = reference.model_arrays(model)

    def failures(p, b):
        return reference.compare(hb, model, p, b, windows, seed)

    problems = []
    if failures(params, buffers):
        problems.append(f"unperturbed parameters fail: {failures(params, buffers)}")
    if failures(permute_hidden(params, seed), buffers):
        problems.append("permuted hidden units fail: the tolerance is too tight")
    caught = 0
    for name in sorted(params):
        if failures(perturbed(params, name, seed), buffers):
            caught += 1
        else:
            problems.append(f"perturbed parameter {name} passes")
    for name in sorted(buffers):
        if failures(params, perturbed(buffers, name, seed)):
            caught += 1
        else:
            problems.append(f"perturbed buffer {name} passes")
    total = len(params) + len(buffers)
    print(f"reference self-test: {caught}/{total} arrays perturbed by a relative "
          f"{PERTURBATION:g} caught; {len(problems)} problem(s)")
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
