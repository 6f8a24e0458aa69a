import base64
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hbrca import corpus as corpus_mod
from hbrca.cli import main
from hbrca.corpus import load, normalize
from hbrca.rca import run_rca
from hbrca.training import Checkpoint


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


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_every_table_float_reads_back_exactly(workdir):
    """Each float the pipeline writes parses back to the value computed."""
    gen, train_dir, pred, ev, rca = run_pipeline(workdir)
    checkpoint = Checkpoint.load(train_dir / "checkpoint.json")
    keys = ("epoch", "train_loss", "val_mse", "lr")
    assert [[float(v) for v in row] for row in _csv_rows(train_dir / "metrics.csv")] == [
        [row[k] for k in keys] for row in checkpoint.history
    ]

    truth = load(gen / "corpus.txt").positions[:, :, 1:]
    predicted = load(pred / "predicted.txt").positions[:, :, 1:]
    (mse, mae), = _csv_rows(ev / "errors.csv")
    assert float(mse) == float(np.mean((predicted - truth) ** 2))
    assert float(mae) == float(np.mean(np.abs(predicted - truth)))

    corpus = normalize(load(gen / "corpus.txt"))
    report, posterior = run_rca(checkpoint.build_model(), corpus, k=2)
    n = corpus.n_atoms
    rows = _csv_rows(rca / "posterior.csv")
    assert [(int(i), int(j)) for i, j, *_ in rows] == [
        (i, j) for i in range(n) for j in range(n) if i != j
    ]
    for i, j, *probs in rows:
        assert [float(p) for p in probs] == posterior.probs[int(i), int(j)].tolist()
    rows = _csv_rows(rca / "rca_report.csv")
    assert [int(r[0]) for r in rows] == list(range(1, n + 1))
    assert [r[1] for r in rows] == [corpus.atom_names[i] for i in report.order]
    assert [float(r[2]) for r in rows] == report.scores[report.order].tolist()


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


@pytest.mark.parametrize("seed", [1, 3])
def test_non_finite_simulation_gives_exit_4(workdir, seed, capsys):
    """Springs of 1e308 overflow at the first step: to inf and past the
    blow-up limit (seed 1), or to NaN (seed 3). Both are numerical failures."""
    cfg = {"schema_version": 1, "generate": {
        "scm": {"n_nodes": 3, "n_dims": 3, "edges": [[0, 1, 1], [2, 1, 1]],
                "k_attract": 1e308, "noise_std": 0.0, "static_nodes": [0]},
        "t_total": 50, "seed": seed}}
    path = write_config(workdir / "g.json", cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["generate", "--config", path, "--out", str(workdir / "o")])
    assert code == 4
    assert "non-finite at step 1" in capsys.readouterr().err


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
    ("config", {"lr": "x"}),
    ("config", {"lr": 0}),
    ("config", {"lr": -1e-3}),
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


@pytest.mark.parametrize("fault", ["directory", "not-utf8"])
def test_unreadable_corpus_file_gives_exit_3(workdir, fault, capsys):
    if fault == "directory":
        bad = workdir / "corpus_dir"
        bad.mkdir()
        section = {"evaluate": {"truth": str(bad), "predicted": str(bad)}}
    else:
        bad = workdir / "latin1.txt"
        bad.write_bytes(b"{\"schema\": 1, \"atom_names\": [\"\xe9\"]}\n")
        section = {"train": {"corpus": str(bad)}}
    path = write_config(workdir / "c.json", dict(section, schema_version=1))
    command = next(iter(section))
    assert main([command, "--config", path, "--out", str(workdir / "o")]) == 3
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["directory", "not-utf8", "not-json"])
def test_unreadable_config_file_gives_exit_2(workdir, fault, capsys):
    if fault == "directory":
        bad = workdir / "config_dir"
        bad.mkdir()
    elif fault == "not-utf8":
        bad = workdir / "latin1.json"
        bad.write_bytes(b"{\"schema_version\": 1, \"train\": {\"corpus\": \"\xe9\"}}\n")
    else:
        bad = workdir / "truncated.json"
        bad.write_text('{"schema_version": 1,', encoding="utf-8")
    assert main(["train", "--config", str(bad), "--out", str(workdir / "o")]) == 2
    assert str(bad) in capsys.readouterr().err


def test_regime_key_outside_the_corpus_gives_exit_3(trained, tmp_path, capsys):
    """A regime label for a window the file does not hold."""
    corpus, checkpoint = trained
    head, rest = open(corpus, encoding="utf-8").read().split("\n", 1)
    meta = json.loads(head)
    meta["regimes"]["99999"] = "persist"
    bad = tmp_path / "corpus.txt"
    bad.write_text(json.dumps(meta) + "\n" + rest, encoding="utf-8")
    path = write_config(tmp_path / "c.json", {
        "schema_version": 1, "rca": {"checkpoint": checkpoint, "corpus": str(bad)}})
    assert main(["rca", "--config", path, "--out", str(tmp_path / "o"),
                 "--allow-hash-mismatch"]) == 3
    assert "99999" in capsys.readouterr().err


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


# -- config faults exit 2, checkpoint faults exit 3 -----------------------------


@pytest.mark.parametrize("change,key", [
    (lambda g: g["scm"].pop("n_nodes"), "n_nodes"),
    (lambda g: g["scm"].update(edges=[[0, 9, 1]]), "edges"),
    (lambda g: g.update(t_total="abc"), "t_total"),
    (lambda g: g["scm"].update(step_size=-1), "step_size"),
    (lambda g: g.update(window=1), "window"),
    (lambda g: g.update(t_total=1), "t_total"),
    (lambda g: g.update(window=300), "window"),
    (lambda g: g["scm"].update(n_dims=4), "n_dims"),
    (lambda g: g["scm"].update(init_positions="abc"), "init_positions"),
    (lambda g: g.update(normalize="false"), "normalize"),
], ids=["no-n_nodes", "edge-off-graph", "t_total-text", "step_size-negative",
        "window-1", "t_total-1", "window-above-t_total", "n_dims-4", "init_positions-text",
        "normalize-text"])
def test_bad_generate_value_gives_exit_2(workdir, change, key, capsys):
    doc = generate_config()
    change(doc["generate"])
    path = write_config(workdir / "g.json", doc)
    assert main(["generate", "--config", path, "--out", str(workdir / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(corpus path, checkpoint path) of a one-epoch run."""
    work = tmp_path_factory.mktemp("trained")
    cfg = write_config(work / "gen.json", generate_config())
    assert main(["generate", "--config", cfg, "--out", str(work / "gen")]) == 0
    corpus = str(work / "gen" / "corpus.txt")
    tcfg = write_config(work / "train.json", {"schema_version": 1, "train": {
        "corpus": corpus, "phase": "rca", "config": {"epochs": 1, "batch_size": 16}}})
    assert main(["train", "--config", tcfg, "--out", str(work / "train")]) == 0
    return corpus, str(work / "train" / "checkpoint.json")


@pytest.mark.parametrize("command,values,flags,key", [
    ("train", {"config": {"seed": -1}}, [], "seed"),
    ("predict", {"seed": -1}, [], "seed"),
    ("predict", {}, ["--seed", "-1"], "seed"),
    ("rca", {"epsilon": 0}, [], "epsilon"),
    ("rca", {"top_k": "x"}, [], "top_k"),
    ("rca", {"top_k": 2.7}, [], "top_k"),
    ("rca", {"epsilon": 0.7}, [], "epsilon"),
    ("predict", {"allow_hash_mismatch": "false"}, [], "allow_hash_mismatch"),
    ("rca", {"allow_hash_mismatch": True}, [], "allow_hash_mismatch"),
    ("train", {"normalize": "false"}, [], "normalize"),
    ("predict", {"normalize": "false"}, [], "normalize"),
    ("rca", {"normalize": 0}, [], "normalize"),
], ids=["train-seed-negative", "predict-seed-negative", "seed-flag-negative",
        "rca-epsilon-0", "rca-top_k-text", "rca-top_k-fraction", "rca-epsilon-0.7",
        "predict-allow_hash_mismatch", "rca-allow_hash_mismatch", "train-normalize-text",
        "predict-normalize-text", "rca-normalize-0"])
def test_bad_section_value_gives_exit_2(trained, tmp_path, command, values, flags, key,
                                        capsys):
    corpus, checkpoint = trained
    section = dict({"corpus": corpus}, **values)
    if command != "train":
        section["checkpoint"] = checkpoint
    path = write_config(tmp_path / "c.json", {"schema_version": 1, command: section})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")] + flags) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("evaluate", ["--seed", "1"]),
    ("rca", ["--seed", "1"]),
    ("generate", ["--allow-hash-mismatch"]),
    ("train", ["--allow-hash-mismatch"]),
    ("evaluate", ["--allow-hash-mismatch"]),
], ids=["evaluate-seed", "rca-seed", "generate-allow-hash-mismatch",
        "train-allow-hash-mismatch", "evaluate-allow-hash-mismatch"])
def test_command_rejects_flag_it_does_not_take(tmp_path, command, flag, capsys):
    """Only generate, train and predict draw randomness (--seed), and only
    predict and rca compare corpus hashes (--allow-hash-mismatch)."""
    path = write_config(tmp_path / "c.json", generate_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, "--out", str(tmp_path / "o")] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


# -- predict and rca hash the text they read -----------------------------------


def _echoed_hash(out_dir):
    return json.loads((out_dir / "config.json").read_text())["corpus_hash"]


@pytest.mark.parametrize("command", ["predict", "rca"])
def test_canonical_file_is_hashed_without_serializing(trained, tmp_path, command,
                                                      monkeypatch):
    """On the file `generate` wrote, the text's own hash is the canonical
    hash: the corpus read is never serialized to hash it (predict still
    serializes the corpus it predicts, to write predicted.txt)."""
    corpus, checkpoint = trained
    serialized = []
    real = corpus_mod._text_blocks
    monkeypatch.setattr(corpus_mod, "_text_blocks",
                        lambda c: serialized.append(c.predicted) or real(c))
    path = write_config(tmp_path / "c.json", {
        "schema_version": 1, command: {"checkpoint": checkpoint, "corpus": corpus}})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert serialized == ([True] if command == "predict" else [])
    assert _echoed_hash(tmp_path / "o") == _echoed_hash(Path(corpus).parent)


def test_non_canonical_file_of_the_training_corpus_echoes_the_canonical_hash(
        trained, tmp_path):
    """The same corpus with its floats written by repr: the text hash
    differs, and the canonical hash is taken from a fresh serialization."""
    corpus, checkpoint = trained
    lines = open(corpus, encoding="utf-8").read().splitlines()
    rows = [row.split(",") for row in lines[2:]]
    text = "\n".join(lines[:2] + [",".join(r[:3] + [repr(float(v)) for v in r[3:]])
                                  for r in rows]) + "\n"
    assert text != open(corpus, encoding="utf-8").read()
    other = tmp_path / "repr.txt"
    other.write_text(text, encoding="utf-8")
    assert np.array_equal(load(other).positions, load(corpus).positions)
    for command in ("predict", "rca"):
        path = write_config(tmp_path / "c.json", {
            "schema_version": 1, command: {"checkpoint": checkpoint, "corpus": str(other)}})
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert _echoed_hash(out) == _echoed_hash(Path(corpus).parent)


def test_normalize_that_changes_the_corpus_gets_a_fresh_hash(workdir, capsys):
    """Trained on an unnormalized corpus with normalize off, then read with
    normalize on: the file's text is the training corpus, the corpus used
    is not, so the hashes must not match."""
    doc = generate_config()
    doc["generate"]["normalize"] = False
    cfg = write_config(workdir / "gen.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(workdir / "gen")]) == 0
    corpus = str(workdir / "gen" / "corpus.txt")
    assert np.max(np.abs(load(corpus).positions)) != 1.0
    tcfg = write_config(workdir / "train.json", {"schema_version": 1, "train": {
        "corpus": corpus, "phase": "rca", "normalize": False,
        "config": {"epochs": 1, "batch_size": 16}}})
    assert main(["train", "--config", tcfg, "--out", str(workdir / "train")]) == 0
    checkpoint = str(workdir / "train" / "checkpoint.json")
    for normalize_corpus, code in ((False, 0), (True, 3)):
        rcfg = write_config(workdir / "rca.json", {"schema_version": 1, "rca": {
            "checkpoint": checkpoint, "corpus": corpus, "normalize": normalize_corpus}})
        assert main(["rca", "--config", rcfg, "--out", str(workdir / "rca")]) == code
    assert "corpus hash does not match" in capsys.readouterr().err


def _version_1(doc):
    """The same model as a version-1 file, which also held Adam moments."""
    doc.update(version=1, seed=doc["config"]["seed"],
               adam={"step": 1, "m": doc["params"], "v": doc["params"]})
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["predict", "rca"])
@pytest.mark.parametrize("fault,message", [
    ("corpus-file", "not a checkpoint"),
    ("version-1", "version 1"),
    ("truncated", "not a checkpoint"),
    ("no-params", "params"),
    ("not-found", "not a checkpoint"),
], ids=["corpus-file", "version-1", "truncated", "no-params", "not-found"])
def test_bad_checkpoint_gives_exit_3(trained, tmp_path, command, fault, message, capsys):
    corpus, checkpoint = trained
    text = open(checkpoint, encoding="utf-8").read()
    bad = tmp_path / "checkpoint.json"
    if fault == "corpus-file":
        bad = corpus
    elif fault == "version-1":
        bad.write_text(_version_1(json.loads(text)))
    elif fault == "truncated":
        bad.write_text(text[: len(text) // 2])
    elif fault == "no-params":
        doc = json.loads(text)
        del doc["params"]
        bad.write_text(json.dumps(doc))
    path = write_config(tmp_path / "c.json", {
        "schema_version": 1, command: {"checkpoint": str(bad), "corpus": corpus}})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "rca"])
@pytest.mark.parametrize("shape", [[1, 1], [2, 128]], ids=["broadcastable", "too-many-rows"])
def test_checkpoint_buffer_of_wrong_shape_gives_exit_3(trained, tmp_path, command, shape,
                                                      capsys):
    """A batch-norm buffer whose shape is not its network's is a data error
    naming the buffer, whether numpy could broadcast it or not."""
    corpus, checkpoint = trained
    doc = json.loads(open(checkpoint, encoding="utf-8").read())
    name = "enc.edge1.bn.running_mean"
    assert doc["buffers"][name]["shape"] == [1, 128]
    doc["buffers"][name] = {"shape": shape, "data": base64.b64encode(
        np.zeros(shape).astype("<f8").tobytes()).decode("ascii")}
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    path = write_config(tmp_path / "c.json", {
        "schema_version": 1, command: {"checkpoint": str(bad), "corpus": corpus}})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert f"shape mismatch for '{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "rca"])
@pytest.mark.parametrize("key,value", [("t_window", 10), ("n_dims", 2)],
                         ids=["window", "n_dims"])
def test_corpus_checkpoint_shape_mismatch_gives_exit_3(trained, tmp_path, command, key,
                                                      value, capsys):
    """A corpus whose windows differ in length or dimension from the
    checkpoint's is a data error, even with --allow-hash-mismatch."""
    _, checkpoint = trained
    doc = generate_config()
    if key == "t_window":
        doc["generate"]["window"] = value
    else:
        scm = doc["generate"]["scm"]
        scm["n_dims"] = value
        scm["init_positions"] = [row[:value] for row in scm["init_positions"]]
    cfg = write_config(tmp_path / "gen.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
    path = write_config(tmp_path / "c.json", {"schema_version": 1, command: {
        "checkpoint": checkpoint, "corpus": str(tmp_path / "gen" / "corpus.txt")}})
    assert main([command, "--config", path, "--out", str(tmp_path / "o"),
                 "--allow-hash-mismatch"]) == 3
    err = capsys.readouterr().err
    expected = {"t_window": 5, "n_dims": 3}[key]
    assert f"{key} {value}" in err and f"{key} {expected}" in err


@pytest.mark.parametrize("command,fault,exit_code,words", [
    ("train", "one-atom", 3, ["two atoms, got 1"]),
    ("predict", "one-atom", 3, ["two atoms, got 1"]),
    ("rca", "one-atom", 3, ["two atoms, got 1"]),
    ("train", "empty-split", 2, ["'split'", "train fraction 0.0", "of 40 windows"]),
], ids=["train-one-atom", "predict-one-atom", "rca-one-atom", "train-empty-split"])
def test_corpus_the_model_cannot_use_gives_documented_exit(trained, tmp_path, command, fault,
                                                          exit_code, words, capsys):
    """A one-atom corpus has no atom pairs (data error); a split that leaves
    no training windows is a config error. Each message names the fault."""
    corpus, checkpoint = trained
    section = {"corpus": corpus}
    if fault == "one-atom":
        doc = generate_config()
        doc["generate"]["scm"] = {"n_nodes": 1, "n_dims": 3, "noise_std": 0.1}
        cfg = write_config(tmp_path / "gen.json", doc)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
        section["corpus"] = str(tmp_path / "gen" / "corpus.txt")
    else:
        section["split"] = {"train": 0.0, "val": 0.5, "test": 0.5}
    if command != "train":
        section["checkpoint"] = checkpoint
    path = write_config(tmp_path / "c.json", {"schema_version": 1, command: section})
    flags = ["--allow-hash-mismatch"] if command != "train" else []
    assert main([command, "--config", path, "--out", str(tmp_path / "o")] + flags) == exit_code
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
