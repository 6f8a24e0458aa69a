import json
import os

import numpy as np
import pytest

from hbrca.cli import main
from hbrca.corpus import load


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def generate_config(seed=3):
    return {
        "schema_version": 1,
        "generate": {
            "scm": {
                "n_nodes": 5,
                "n_dims": 3,
                "edges": [[0, 3, 1], [1, 4, 1]],
                "k_attract": 9.5,
                "k_switch": 1.0,
                "noise_std": 0.1,
                "step_size": 0.1,
                "change_set": [3],
                "static_nodes": [0, 1],
                "init_positions": [
                    [0.9, 0.0, 0.0], [-0.9, 0.0, 0.0], [0.1, 0.6, 0.0],
                    [0.9, 0.02, 0.0], [-0.9, -0.02, 0.0],
                ],
            },
            "t_total": 200,
            "window": 5,
            "seed": seed,
        },
    }


def run_pipeline(workdir, seed=3, epochs=2):
    """generate -> train -> predict -> evaluate -> rca, tiny budgets."""
    gen_dir = workdir / "gen"
    cfg = write_config(workdir / "gen.json", generate_config(seed))
    assert main(["generate", "--config", cfg, "--out", str(gen_dir)]) == 0
    corpus_path = str(gen_dir / "corpus.txt")

    train_dir = workdir / "train"
    tcfg = write_config(workdir / "train.json", {
        "schema_version": 1,
        "train": {
            "corpus": corpus_path,
            "phase": "rca",
            "config": {"epochs": epochs, "batch_size": 16, "seed": seed},
        },
    })
    assert main(["train", "--config", tcfg, "--out", str(train_dir)]) == 0
    ckpt_path = str(train_dir / "checkpoint.json")

    pred_dir = workdir / "pred"
    pcfg = write_config(workdir / "pred.json", {
        "schema_version": 1,
        "predict": {"checkpoint": ckpt_path, "corpus": corpus_path, "seed": 0},
    })
    assert main(["predict", "--config", pcfg, "--out", str(pred_dir)]) == 0

    eval_dir = workdir / "eval"
    ecfg = write_config(workdir / "eval.json", {
        "schema_version": 1,
        "evaluate": {
            "truth": corpus_path,
            "predicted": str(pred_dir / "predicted.txt"),
        },
    })
    assert main(["evaluate", "--config", ecfg, "--out", str(eval_dir)]) == 0

    rca_dir = workdir / "rca"
    rcfg = write_config(workdir / "rca.json", {
        "schema_version": 1,
        "rca": {"checkpoint": ckpt_path, "corpus": corpus_path, "top_k": 2},
    })
    assert main(["rca", "--config", rcfg, "--out", str(rca_dir)]) == 0
    return gen_dir, train_dir, pred_dir, eval_dir, rca_dir


def test_full_pipeline_produces_expected_artifacts(workdir):
    gen, train, pred, ev, rca = run_pipeline(workdir)
    assert (gen / "corpus.txt").exists()
    assert (gen / "config.json").exists()
    assert (train / "checkpoint.json").exists()
    assert (train / "metrics.csv").exists()
    assert (pred / "predicted.txt").exists()
    for name in ("displacement.csv", "rmsf_time.csv", "rmsf_atom.csv", "errors.csv"):
        assert (ev / name).exists()
    for name in ("posterior.csv", "rca_report.csv", "rca_accuracy.csv"):
        assert (rca / name).exists()
    # provenance: every output dir carries the resolved config + corpus hash
    for out in (gen, train, pred, ev, rca):
        echo = json.loads((out / "config.json").read_text())
        assert echo["schema_version"] == 1
        assert "corpus_hash" in echo

    predicted = load(pred / "predicted.txt")
    assert predicted.predicted
    truth = load(gen / "corpus.txt")
    assert predicted.positions.shape == truth.positions.shape
    assert np.array_equal(predicted.positions[:, :, 0, :], truth.positions[:, :, 0, :])

    metrics = (train / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,train_loss,val_mse,lr"

    report = (rca / "rca_report.csv").read_text().splitlines()
    assert report[0] == "rank,atom,score"
    assert len(report) == 1 + 5
    # the labeled corpus holds both regimes, so the regime contrast is used
    assert json.loads((rca / "config.json").read_text())["score"] == "regime-contrast"


def test_pipeline_is_byte_deterministic(workdir):
    d1 = workdir / "one"
    d2 = workdir / "two"
    d1.mkdir()
    d2.mkdir()
    outs1 = run_pipeline(d1)
    outs2 = run_pipeline(d2)
    for a, b in zip(outs1, outs2):
        for name in sorted(os.listdir(a)):
            if name == "config.json":
                continue  # echoes the user's paths, which differ across tmp dirs
            fa = (a / name).read_bytes()
            fb = (b / name).read_bytes()
            assert fa == fb, f"{a}/{name} differs"


def test_generate_with_zero_noise_two_body_matches_oracle(workdir):
    """CLI-level check of the closed-form two-body contraction."""
    cfg = {
        "schema_version": 1,
        "generate": {
            "scm": {
                "n_nodes": 2,
                "n_dims": 3,
                "edges": [[0, 1, 1]],
                "k_attract": 0.8,
                "k_switch": 0.0,
                "noise_std": 0.0,
                "step_size": 0.1,
                "init_positions": [[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]],
            },
            "t_total": 50,
            "seed": 0,
            "normalize": False,
        },
    }
    out = workdir / "two_body"
    path = write_config(workdir / "g.json", cfg)
    assert main(["generate", "--config", path, "--out", str(out)]) == 0
    corpus = load(out / "corpus.txt")
    pos = corpus.positions[0]
    d0 = np.array([1.0, 2.0, -1.0])
    for t in range(50):
        expect = (1.0 - 0.08) ** t * d0
        assert np.max(np.abs(pos[1, t] - expect)) < 1e-9


def test_unknown_config_key_gives_exit_2(workdir):
    doc = generate_config()
    doc["generate"]["mystery"] = 1
    path = write_config(workdir / "bad.json", doc)
    assert main(["generate", "--config", path, "--out", str(workdir / "o")]) == 2


@pytest.mark.parametrize("key,value", [
    ("config", {"epochs": 0}),
    ("config", {"epochs": "x"}),
    ("config", {"mystery": 1}),
    ("split", {"train": 0.5, "val": 0.1, "test": 0.1}),
])
def test_bad_train_section_value_gives_exit_2(workdir, key, value, capsys):
    gen_dir = workdir / "gen"
    cfg = write_config(workdir / "gen.json", generate_config())
    assert main(["generate", "--config", cfg, "--out", str(gen_dir)]) == 0
    path = write_config(workdir / "t.json", {
        "schema_version": 1,
        "train": {"corpus": str(gen_dir / "corpus.txt"), "phase": "rca", key: value},
    })
    assert main(["train", "--config", path, "--out", str(workdir / "o")]) == 2
    assert f"train.{key}" in capsys.readouterr().err


def test_missing_section_gives_exit_2(workdir):
    path = write_config(workdir / "bad.json", {"schema_version": 1})
    assert main(["train", "--config", path, "--out", str(workdir / "o")]) == 2


def test_wrong_schema_version_gives_exit_2(workdir):
    doc = generate_config()
    doc["schema_version"] = 9
    path = write_config(workdir / "bad.json", doc)
    assert main(["generate", "--config", path, "--out", str(workdir / "o")]) == 2


def test_missing_corpus_gives_exit_3(workdir):
    path = write_config(workdir / "t.json", {
        "schema_version": 1,
        "train": {"corpus": str(workdir / "nope.txt")},
    })
    assert main(["train", "--config", path, "--out", str(workdir / "o")]) == 3


def test_corrupt_corpus_gives_exit_3(workdir):
    bad = workdir / "bad.txt"
    bad.write_text("not a corpus\n")
    path = write_config(workdir / "t.json", {
        "schema_version": 1,
        "train": {"corpus": str(bad)},
    })
    assert main(["train", "--config", path, "--out", str(workdir / "o")]) == 3


def test_hash_mismatch_refused_unless_flagged(workdir):
    gen, train_dir, *_ = run_pipeline(workdir)
    other_dir = workdir / "gen2"
    cfg = write_config(workdir / "gen2.json", generate_config(seed=4))
    assert main(["generate", "--config", cfg, "--out", str(other_dir)]) == 0
    pcfg = write_config(workdir / "p2.json", {
        "schema_version": 1,
        "predict": {
            "checkpoint": str(train_dir / "checkpoint.json"),
            "corpus": str(other_dir / "corpus.txt"),
        },
    })
    out = workdir / "p2"
    assert main(["predict", "--config", pcfg, "--out", str(out)]) == 3
    assert main([
        "predict", "--config", pcfg, "--out", str(out), "--allow-hash-mismatch",
    ]) == 0


def test_prediction_phase_echo_carries_table_defaults(workdir):
    gen_dir = workdir / "gen"
    cfg = write_config(workdir / "gen.json", generate_config())
    assert main(["generate", "--config", cfg, "--out", str(gen_dir)]) == 0
    train_dir = workdir / "train"
    tcfg = write_config(workdir / "train.json", {
        "schema_version": 1,
        "train": {
            "corpus": str(gen_dir / "corpus.txt"),
            "phase": "prediction",
            "config": {"epochs": 1, "batch_size": 16},
        },
    })
    assert main(["train", "--config", tcfg, "--out", str(train_dir)]) == 0
    echo = json.loads((train_dir / "config.json").read_text())
    resolved = echo["resolved_train_config"]
    assert resolved["tau"] == 0.5
    assert resolved["lr"] == 5e-5
    assert resolved["prior"] == [0.2, 0.4, 0.4]
    assert resolved["k"] == 5  # window length
    assert "init_scheme" in echo


def test_rca_without_both_regimes_reports_undefined_accuracy(workdir):
    """A corpus whose windows all share one regime has no oracle; the
    accuracy table must say so rather than invent values."""
    doc = generate_config()
    doc["generate"]["scm"]["change_set"] = []
    doc["generate"]["scm"]["k_switch"] = 0.0
    gen_dir = workdir / "gen"
    cfg = write_config(workdir / "gen.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(gen_dir)]) == 0
    train_dir = workdir / "train"
    tcfg = write_config(workdir / "train.json", {
        "schema_version": 1,
        "train": {
            "corpus": str(gen_dir / "corpus.txt"),
            "phase": "rca",
            "config": {"epochs": 1, "batch_size": 16},
        },
    })
    assert main(["train", "--config", tcfg, "--out", str(train_dir)]) == 0
    rca_dir = workdir / "rca"
    rca_section = {
        "checkpoint": str(train_dir / "checkpoint.json"),
        "corpus": str(gen_dir / "corpus.txt"),
    }
    # no top_k: the default of 10 is capped at the corpus's 5 atoms
    rcfg = write_config(workdir / "rca.json", {"schema_version": 1, "rca": rca_section})
    assert main(["rca", "--config", rcfg, "--out", str(rca_dir)]) == 0
    acc = (rca_dir / "rca_accuracy.csv").read_text()
    for metric in ("kl", "wasserstein", "expectation"):
        assert f"{metric},na,na" in acc
    echo = json.loads((rca_dir / "config.json").read_text())
    assert echo["score"] == "channel"
    assert len(echo["top_k"]) == 5
    # an explicit top_k above the atom count is a config error
    rcfg = write_config(workdir / "rca6.json", {
        "schema_version": 1, "rca": dict(rca_section, top_k=6),
    })
    assert main(["rca", "--config", rcfg, "--out", str(workdir / "rca6")]) == 2


def test_seed_flag_overrides_config(workdir):
    cfg = write_config(workdir / "g.json", generate_config(seed=3))
    a = workdir / "a"
    b = workdir / "b"
    assert main(["generate", "--config", cfg, "--out", str(a), "--seed", "99"]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
    ca = (a / "corpus.txt").read_bytes()
    cb = (b / "corpus.txt").read_bytes()
    assert ca != cb
    echo = json.loads((a / "config.json").read_text())
    assert echo["seed"] == 99
