import json
import math

import numpy as np
import pytest

from hbrca import tensor as T
from hbrca.corpus import TrajectoryCorpus, corpus_hash
from hbrca.decoder import rollout_train
from hbrca.encoder import encode_logits
from hbrca.errors import ParameterError
from hbrca.graph import pair_index
from hbrca.layers import gumbel_softmax
from hbrca.model import ModelParams, eval_mse
from hbrca.rng import gumbel, substream
from hbrca.training import (
    GROUP_LASSO,
    L1,
    Checkpoint,
    TrainConfig,
    composite_loss,
    loss_kl,
    loss_reconstruction,
    loss_sparsity,
    train,
    write_metrics_csv,
)

from conftest import central_difference, directional_difference, relative_error


def make_corpus(rng, s=12, n=4, t=5, d=3):
    return TrajectoryCorpus(
        positions=rng.normal(size=(s, n, t, d)),
        atom_names=[f"A{i:02d}" for i in range(n)],
    )


# -- loss terms ----------------------------------------------------------------


def test_kl_zero_when_posterior_equals_prior():
    prior = (0.2, 0.4, 0.4)
    rows = np.tile(prior, (7, 1))
    assert abs(loss_kl(rows, prior)) < 1e-15
    uniform = np.full((5, 3), 1.0 / 3.0)
    assert abs(loss_kl(uniform, (1 / 3, 1 / 3, 1 / 3))) < 1e-15


def test_kl_handles_zero_posterior_entries():
    q = np.array([[0.5, 0.5, 0.0]])
    expect = math.log(1.5)
    assert abs(loss_kl(q, (1 / 3, 1 / 3, 1 / 3)) - expect) < 1e-12


def test_kl_rejects_zero_prior():
    with pytest.raises(ParameterError):
        loss_kl(np.full((2, 3), 1 / 3), (0.0, 0.5, 0.5))


def test_kl_sums_over_edges():
    q = np.tile([0.5, 0.5, 0.0], (4, 1))
    assert abs(loss_kl(q, (1 / 3, 1 / 3, 1 / 3)) - 4 * math.log(1.5)) < 1e-12


def test_reconstruction_basics(rng):
    x = rng.normal(size=(3, 4, 2))
    assert loss_reconstruction(x, x) == 0.0
    assert abs(loss_reconstruction(x + 0.3, x) - 0.09) < 1e-12


def test_sparsity_hand_values():
    one_hot_none = np.tile([1.0, 0.0, 0.0], (5, 1))
    assert loss_sparsity(one_hot_none, L1) == 0.0
    assert loss_sparsity(one_hot_none, GROUP_LASSO) == 0.0
    q = np.array([[0.0, 0.6, 0.8]])
    assert abs(loss_sparsity(q, L1) - 1.4) < 1e-12
    assert abs(loss_sparsity(q, GROUP_LASSO) - 1.0) < 1e-12


def test_group_lasso_prefers_shared_structure():
    """Splitting causal mass across both channels costs less than
    concentrating it, which is what couples the two edge types."""
    lumped = np.array([[0.2, 0.8, 0.0]])
    split = np.array([[0.2, 0.4, 0.4]])
    assert loss_sparsity(split, GROUP_LASSO) < loss_sparsity(lumped, GROUP_LASSO)
    assert abs(loss_sparsity(split, L1) - loss_sparsity(lumped, L1)) < 1e-12


# -- config ---------------------------------------------------------------------


def test_config_presets_match_hyperparameter_table():
    pred = TrainConfig.prediction(t_window=50)
    assert (pred.tau, pred.lr, pred.prior) == (0.5, 5e-5, (0.2, 0.4, 0.4))
    assert pred.k == 50 and pred.epochs == 300 and pred.sparsity_mode == L1
    rca = TrainConfig.rca()
    assert (rca.tau, rca.lr, rca.prior) == (0.5, 5e-4, (0.9, 0.05, 0.05))
    assert rca.k == 3 and rca.epochs == 100 and rca.sparsity_mode == GROUP_LASSO
    for cfg in (pred, rca):
        assert (cfg.lambda_kl, cfg.lambda_rec, cfg.lambda_sparse) == (1.0, 0.1, 0.001)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(tau=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(prior=(0.5, 0.5, 0.1))
    with pytest.raises(ParameterError):
        TrainConfig(lambda_kl=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(sparsity_mode="l7")


def test_config_round_trip_rejects_unknown_keys():
    cfg = TrainConfig.rca(seed=7)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    from hbrca.errors import ConfigError

    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"tau": 0.5, "mystery": 1})


# -- composite loss gradients -------------------------------------------------------


@pytest.mark.parametrize("mode", [L1, GROUP_LASSO])
def test_composite_gradients_match_directional_fd(mode, rng):
    """Analytic gradients against a central-difference directional probe
    for every parameter group, through encoder, sampling and rollout."""
    windows = rng.normal(size=(2, 3, 4, 2))
    config = TrainConfig(
        tau=0.5, lr=1e-3, prior=(0.6, 0.2, 0.2), k=2, epochs=1,
        sparsity_mode=mode, seed=0,
    )
    model = ModelParams.create(rng, t_window=4, n_dims=2, enc_hidden=8,
                               dec_hidden=6, msg_dim=6)
    noise = gumbel(rng, (2 * 6, 3))
    params = model.parameters()
    buffers = {k: v.copy() for k, v in model.buffers().items()}

    def loss_value():
        out = float(
            composite_loss(model, windows, config, noise=noise)[0].data
        )
        for k, v in model.buffers().items():  # forward updates BN buffers
            v[...] = buffers[k]
        return out

    model.zero_grads()
    loss, _ = composite_loss(model, windows, config, noise=noise)
    for k, v in model.buffers().items():
        v[...] = buffers[k]
    loss.backward()
    for name, p in params.items():
        direction = rng.normal(size=p.data.shape)
        direction /= np.linalg.norm(direction)
        fd = directional_difference(loss_value, p.data, direction)
        analytic = float(np.sum(p.grad * direction))
        assert relative_error(analytic, fd) < 1e-4, name


@pytest.mark.parametrize("mode", [L1, GROUP_LASSO])
def test_composite_loss_parts_match_reference_losses(mode, rng):
    """What training optimizes, term by term, against the numeric loss
    functions evaluated on the same frozen-noise batch: the posterior,
    and the rollout, of one training-mode forward pass."""
    b, n, t, d = 3, 4, 5, 2
    windows = rng.normal(size=(b, n, t, d))
    config = TrainConfig(prior=(0.6, 0.2, 0.2), k=2, sparsity_mode=mode,
                         lambda_kl=1.3, lambda_rec=0.7, lambda_sparse=0.05)
    model = ModelParams.create(rng, t_window=t, n_dims=d, enc_hidden=8,
                               dec_hidden=6, msg_dim=6)
    noise = gumbel(rng, (b * n * (n - 1), 3))
    _, parts = composite_loss(model, windows, config, noise=noise)

    logits = encode_logits(model.encoder, windows, training=True)
    q = T._softmax(logits.data)
    edges = gumbel_softmax(logits, config.tau, None, noise=noise)
    steps = rollout_train(model.decoder, windows, edges, config.k, pair_index(n, b))
    pred = steps.data.reshape(t - 1, b, n, d).transpose(1, 2, 0, 3)
    expect = {
        "kl": loss_kl(q, config.prior) / b,
        "reconstruction": loss_reconstruction(pred, windows[:, :, 1:, :]),
        "sparsity": loss_sparsity(q, mode) / b,
    }
    expect["total"] = (config.lambda_kl * expect["kl"]
                       + config.lambda_rec * expect["reconstruction"]
                       + config.lambda_sparse * expect["sparsity"])
    for name, value in expect.items():
        assert abs(parts[name] - value) <= 1e-12 * abs(value), name


@pytest.mark.parametrize("mode", [L1, GROUP_LASSO])
def test_loss_head_gradient_in_q_matches_finite_differences(mode, rng, monkeypatch):
    """The loss head's gradient in the posterior q, taken where it enters
    the softmax backward, against central differences of
    lambda_kl * KL(q || prior) / B + lambda_sparse * sparsity(q) / B in
    each entry of q. The softmax backward removes any per-row constant
    (q's rows sum to 1), so the finite-difference checks through the
    parameters cannot see an error of that kind here."""
    b, n, t, d = 3, 4, 5, 2
    windows = rng.normal(size=(b, n, t, d))
    config = TrainConfig(prior=(0.6, 0.25, 0.15), k=2, sparsity_mode=mode,
                         lambda_kl=1.3, lambda_rec=0.7, lambda_sparse=0.05)
    model = ModelParams.create(rng, t_window=t, n_dims=d, enc_hidden=8,
                               dec_hidden=6, msg_dim=6)
    noise = gumbel(rng, (b * n * (n - 1), 3))
    calls = []
    softmax_backward = T._softmax_backward

    def spy(g, out):
        calls.append((g.copy(), out.copy()))
        return softmax_backward(g, out)

    monkeypatch.setattr(T, "_softmax_backward", spy)
    loss, _ = composite_loss(model, windows, config, noise=noise)
    loss.backward()
    # the head's backward runs first, then the Gumbel node's
    assert len(calls) == 2
    g_q, q = calls[0]
    logits = encode_logits(model.encoder, windows, training=True)
    assert np.array_equal(q, T._softmax(logits.data))

    def head(q):
        return (config.lambda_kl * loss_kl(q, config.prior)
                + config.lambda_sparse * loss_sparsity(q, mode)) / b

    fd = central_difference(head, q.copy(), h=1e-6)
    assert np.max(np.abs(g_q - fd)) <= 1e-7 * np.max(np.abs(fd))


def test_degenerate_objective_keeps_params_near_init(rng):
    """Uniform prior with a zero-initialized encoder: the posterior equals
    the prior, so with negligible reconstruction and sparsity weights the
    loss starts at ~0 and parameters barely move."""
    corpus = make_corpus(rng, s=6, n=3, t=4, d=2)
    config = TrainConfig(
        tau=0.5, lr=1e-4, prior=(1 / 3, 1 / 3, 1 / 3), k=2, epochs=2,
        lambda_rec=1e-12, lambda_sparse=1e-12, seed=3,
    )
    model = ModelParams.create(substream(3, "init"), 4, 2)
    for t in model.encoder.parameters().values():
        t.data[...] = 0.0
    loss, parts = composite_loss(
        model, corpus.positions, config, rng=substream(0, "g")
    )
    assert abs(parts["kl"]) < 1e-12
    assert parts["total"] < 1e-9


# -- train loop ----------------------------------------------------------------------


def small_train(rng, epochs=3, seed=11, s=10):
    corpus = make_corpus(rng, s=s, n=3, t=4, d=2)
    config = TrainConfig(
        tau=0.5, lr=1e-3, prior=(0.6, 0.2, 0.2), k=2, epochs=epochs,
        batch_size=4, seed=seed,
    )
    return corpus, config, train(config, corpus)


def test_train_returns_best_checkpoint(rng):
    corpus, config, ckpt = small_train(rng)
    assert ckpt.corpus_hash == corpus_hash(corpus)
    assert ckpt.best_val_mse == min(h["val_mse"] for h in ckpt.history)
    assert len(ckpt.history) == config.epochs
    best_so_far = math.inf
    for row in ckpt.history:
        best_so_far = min(best_so_far, row["val_mse"])
    assert ckpt.best_val_mse == best_so_far


def test_training_is_bitwise_deterministic(rng, tmp_path):
    corpus = make_corpus(np.random.default_rng(0), s=8, n=3, t=4, d=2)
    config = TrainConfig(tau=0.5, lr=1e-3, prior=(0.6, 0.2, 0.2), k=2,
                         epochs=2, batch_size=4, seed=5)
    a = train(config, corpus)
    b = train(config, corpus)
    a.save(tmp_path / "a.json")
    b.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_checkpoint_round_trip_reproduces_rollout(rng, tmp_path):
    corpus, config, ckpt = small_train(rng)
    path = tmp_path / "ckpt.json"
    ckpt.save(path)
    back = Checkpoint.load(path)
    model_a = ckpt.build_model()
    model_b = back.build_model()
    mse_a = eval_mse(model_a, corpus.positions, config.tau, seed=99)
    mse_b = eval_mse(model_b, corpus.positions, config.tau, seed=99)
    assert mse_a == mse_b
    for name, arr in ckpt.params.items():
        assert np.array_equal(arr, back.params[name])
    assert back.config == ckpt.config
    doc = json.loads(path.read_text())
    assert doc["version"] == 2 and "adam" not in doc  # no optimizer state


def test_metrics_csv_format(rng, tmp_path):
    _, _, ckpt = small_train(rng, epochs=2)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(ckpt.history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_mse,lr"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_divergence_aborts_with_last_good_checkpoint(rng, monkeypatch):
    """A non-finite loss mid-run returns the best checkpoint so far."""
    import hbrca.training as training_mod

    corpus = make_corpus(rng, s=8, n=3, t=4, d=2)
    real = training_mod.composite_loss
    calls = {"n": 0}

    def wrapped(model, windows, config, rng=None, noise=None):
        calls["n"] += 1
        loss, parts = real(model, windows, config, rng=rng, noise=noise)
        if calls["n"] > 2:
            parts = dict(parts, total=float("nan"))
        return loss, parts

    monkeypatch.setattr(training_mod, "composite_loss", wrapped)
    config = TrainConfig(tau=0.5, lr=1e-3, prior=(0.6, 0.2, 0.2), k=2,
                         epochs=4, batch_size=8, seed=2)
    ckpt = training_mod.train(config, corpus)
    assert len(ckpt.history) == 2  # epochs 0 and 1 completed, epoch 2 aborted
    assert ckpt.epoch <= 1
    assert np.isfinite(ckpt.best_val_mse)


def test_learning_reduces_validation_mse(rng):
    """Spring corpus, a few dozen epochs: validation MSE must beat the
    first epoch's value."""
    from hbrca.corpus import window_corpus
    from hbrca.springs import EDGE_ATTRACT, ScmSpec, simulate

    n = 6
    adj = np.zeros((n, n), dtype=int)
    adj[0, 3] = EDGE_ATTRACT
    adj[1, 4] = EDGE_ATTRACT
    init = np.zeros((n, 3))
    init[0] = [1.0, 0.5, 0.0]
    init[1] = [-1.0, -0.5, 0.0]
    init[2] = [0.0, 1.0, 0.5]
    init[3] = [0.9, 0.4, 0.1]
    init[4] = [-0.9, -0.4, 0.1]
    init[5] = [0.1, -1.0, -0.5]
    spec = ScmSpec(n_nodes=n, adjacency=adj, k_attract=6.0, noise_std=0.08,
                   step_size=0.1, static_nodes={0, 1, 2}, init_positions=init)
    long_corpus, _ = simulate(spec, 400, seed=2)
    corpus = window_corpus(long_corpus, 5)
    from hbrca.corpus import normalize

    corpus = normalize(corpus)
    config = TrainConfig(tau=0.5, lr=5e-4, prior=(0.6, 0.2, 0.2), k=3,
                         epochs=30, batch_size=16, seed=1)
    ckpt = train(config, corpus)
    assert ckpt.best_val_mse < ckpt.history[0]["val_mse"]
