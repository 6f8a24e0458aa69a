"""The three benchmark workloads: set-up, one pipeline pass, repeats, checks.

Each workload builds its inputs from the seed, times one pass over its
stages (the pipeline), then repeats the stages of a round until the run
has measured for the requested seconds (and for at least a minimum
number of rounds). A rate is windows over the median time of its stage
across the first pass and the repeats; every repeat must reproduce the
first pass bitwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import statistics
import time

import numpy as np

import reference

LIBRARY_SETUP_REPEATS = 9
CLI_SETUP_REPEATS = 3
REFERENCE_SAMPLE = 12


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class Run:
    """Counts attempted operations and collects stage times."""

    def __init__(self, importer, seed: int, seconds: float, tracer, work_dir: str):
        self.importer = importer
        self.hb = None
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work_dir = work_dir
        self.attempted = 0
        self.times = {}

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def op(self, stage: str, fn, *args, **kwargs):
        """Run one operation and record its wall time under `stage`."""
        self.attempted += 1
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.times.setdefault(stage, []).append(time.perf_counter() - t0)
        return result

    def setup(self, build, repeats: int) -> list:
        """Import hbrca afresh and build the inputs, `repeats` times.

        Each set-up is one operation timed as import plus build; a traced
        run sets up once and installs its wrappers between the two.
        """
        results = []
        for _ in range(1 if self.traced else repeats):
            self.attempted += 1
            t0 = time.perf_counter()
            self.hb = self.importer()
            imported = time.perf_counter() - t0
            if self.traced:
                self.tracer.install("hbrca")
            t1 = time.perf_counter()
            results.append(build(self.hb))
            self.times.setdefault("setup", []).append(imported + time.perf_counter() - t1)
        return results

    def repeat_rounds(self, min_rounds: int, round_fn) -> None:
        """Whole rounds until the run has measured `seconds` (untraced only)."""
        if self.traced:
            return
        done = 0
        while done < min_rounds or time.perf_counter() < self.deadline:
            round_fn()
            done += 1

    def start_measuring(self) -> None:
        self.deadline = time.perf_counter() + self.seconds

    @contextlib.contextmanager
    def unchecked(self):
        """Run checks without the tracer (if any) recording them."""
        if self.traced:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.traced:
                self.tracer.active = True

    def median(self, stage: str) -> float:
        return statistics.median(self.times[stage])


def _sample(n: int) -> np.ndarray:
    return np.linspace(0, n - 1, min(REFERENCE_SAMPLE, n)).astype(int)


def check_reference(run: Run, model, windows: np.ndarray) -> None:
    params, buffers = reference.model_arrays(model)
    failures = reference.compare(run.hb, model, params, buffers, windows, run.seed)
    check(not failures, f"numpy reference disagrees: {', '.join(failures)}")


def hold_first_mse(windows: np.ndarray) -> float:
    """MSE of predicting every step as the window's first observed step."""
    return float(np.mean((windows[:, :, 1:, :] - windows[:, :, :1, :]) ** 2))


# -- library workloads ----------------------------------------------------------


@dataclasses.dataclass
class LibrarySpec:
    """A fixed synthetic system, trained on one trajectory of it.

    The model is trained on the trajectory drawn with `system_seed`, with
    that seed also fixing the system (its initial geometry), the training
    seed, the split and the prediction draws. The run's seed draws a
    second trajectory of the same system, on which the timed prediction
    and RCA stages run.
    """

    system_seed: int
    t_total: int
    t_window: int
    epochs: int
    top_k: int
    min_rounds: int


RCA_RECOVERY = LibrarySpec(system_seed=0, t_total=800, t_window=5, epochs=30, top_k=2,
                           min_rounds=7)
PREDICT_LONG = LibrarySpec(system_seed=11, t_total=10_000, t_window=50, epochs=5, top_k=2,
                           min_rounds=5)

# the second-ranked score must exceed the third by this factor on rca-recovery
RCA_MARGIN = 5.0


def _scm_spec(hb, spec: LibrarySpec):
    if spec is RCA_RECOVERY:
        return hb.experiments.rca_recovery_spec(spec.system_seed)
    return hb.experiments.trend_spec(spec.system_seed)


def _train_config(hb, spec: LibrarySpec):
    if spec is RCA_RECOVERY:
        config = hb.experiments.recovery_config(spec.system_seed)
        return dataclasses.replace(config, epochs=spec.epochs)
    return hb.training.TrainConfig.prediction(
        spec.t_window, epochs=spec.epochs, seed=spec.system_seed
    )


def library_workload(run: Run, spec: LibrarySpec) -> dict:
    def build(hb):
        scm = _scm_spec(hb, spec)
        corpora = []
        for seed in (spec.system_seed, run.seed):
            long_corpus, _ = hb.springs.simulate(scm, spec.t_total, seed)
            corpora.append(hb.corpus.normalize(hb.corpus.window_corpus(long_corpus, spec.t_window)))
        return scm, corpora

    built = run.setup(build, LIBRARY_SETUP_REPEATS)
    scm, (train_corpus, corpus) = built[-1]
    check(all(np.array_equal(a.positions, b.positions)
              for _, pair in built for a, b in zip(pair, (train_corpus, corpus))),
          "repeated set-up differs")
    hb, windows = run.hb, corpus.positions
    config = _train_config(hb, spec)
    split = hb.corpus.SplitSpec(seed=spec.system_seed)

    run.start_measuring()
    epoch_ends = []

    def log(_message):
        epoch_ends.append(time.perf_counter())

    started = time.perf_counter()
    checkpoint = run.op("train", hb.training.train, config, train_corpus, split, log=log)
    run.times["epoch"] = list(np.diff([started] + epoch_ends))
    model = run.op("build", checkpoint.build_model)

    def predict(on=windows):
        return hb.model.predict_windows(model, on, config.tau, spec.system_seed)

    def rca():
        report, _ = hb.rca.run_rca(model, corpus, k=spec.top_k)
        return report

    preds = run.op("predict", predict)
    report = run.op("rca", rca)
    pipeline_s = sum(run.times[s][0] for s in ("train", "build", "predict", "rca"))

    def one_round():
        again = run.op("predict", predict)
        check(np.array_equal(again, preds), "repeated prediction differs")
        rep = run.op("rca", rca)
        check(np.array_equal(rep.scores, report.scores), "repeated RCA scores differ")

    run.repeat_rounds(spec.min_rounds, one_round)

    with run.unchecked():
        train_idx, _, test_idx = hb.corpus.split_windows(train_corpus, split)
        check(np.all(np.isfinite(preds)), "non-finite predictions")
        check(preds.shape == windows[:, :, 1:, :].shape, "prediction shape")
        check_reference(run, model, windows[_sample(len(windows))])
        history = checkpoint.history
        check(len(history) == len(epoch_ends) == config.epochs, "training history length")
        if spec is RCA_RECOVERY:
            extra = check_recovery(corpus, scm, spec, report)
        else:
            extra = {}
            check(history[-1]["train_loss"] < history[0]["train_loss"],
                  f"training loss did not fall: {history[0]['train_loss']:.4g} -> "
                  f"{history[-1]['train_loss']:.4g}")
        test = train_corpus.positions[test_idx]
        test_preds = predict(test)
        check(np.all(np.isfinite(test_preds)), "non-finite predictions")
    return {
        "pipeline_s": pipeline_s,
        "train_windows_per_s": len(train_idx) / run.median("epoch"),
        "infer_windows_per_s": len(windows) / run.median("predict"),
        "rca_windows_per_s": len(windows) / run.median("rca"),
        "pred_mse": float(np.mean((test_preds - test[:, :, 1:, :]) ** 2)),
        "hold_first_mse": hold_first_mse(test),
        **extra,
    }


def gaussian_kl_ranking(windows: np.ndarray, persist, separated) -> list:
    """Nodes by descending sum over dims of KL(N_sep || N_persist).

    Each node's position is pooled over the regime's windows and steps
    and fitted with a per-dimension Gaussian.
    """
    def fit(idx):
        block = windows[idx].transpose(1, 0, 2, 3).reshape(windows.shape[1], -1, windows.shape[3])
        return block.mean(axis=1), np.maximum(block.var(axis=1), 1e-12)

    mu_p, var_p = fit(persist)
    mu_s, var_s = fit(separated)
    kl = 0.5 * (np.log(var_p / var_s) + (var_s + (mu_s - mu_p) ** 2) / var_p - 1.0)
    return list(np.argsort(-kl.sum(axis=1), kind="stable"))


def check_recovery(corpus, scm, spec: LibrarySpec, report) -> dict:
    """Top-2 nodes are the change set, by ground truth and by a Gaussian fit."""
    boundary = spec.t_total // 2  # the simulator switches at the midpoint
    n_windows = spec.t_total // spec.t_window
    persist = [w for w in range(n_windows) if (w + 1) * spec.t_window <= boundary]
    separated = [w for w in range(n_windows) if w * spec.t_window >= boundary]
    truth = set(scm.change_set)
    top = list(report.order)
    check(set(top[:2]) == truth, f"top-2 {top[:2]} is not the change set {sorted(truth)}")
    oracle = gaussian_kl_ranking(corpus.positions, persist, separated)
    check(set(oracle[:2]) == truth, f"Gaussian-KL top-2 {oracle[:2]} is not the change set")
    check(not report.no_change_detected, "no mechanism change detected")
    second, third = report.scores[top[1]], report.scores[top[2]]
    check(second >= RCA_MARGIN * third,
          f"second score {second:.4g} is not {RCA_MARGIN}x the third {third:.4g}")
    return {"rca_margin": float(second / third)}


# -- CLI workload -------------------------------------------------------------------

CLI_T_TOTAL = 20_000
CLI_WINDOW = 5
CLI_EPOCHS = 2
CLI_SPLIT = {"train": 0.05, "val": 0.025, "test": 0.925}
CLI_TOP_K = 5
CLI_RUN_SEED = 7
CLI_OUTPUTS = {
    "generate": ["corpus.txt", "config.json"],
    "train": ["checkpoint.json", "metrics.csv", "config.json"],
    "predict": ["predicted.txt", "config.json"],
    "evaluate": ["displacement.csv", "rmsf_time.csv", "rmsf_atom.csv", "errors.csv",
                 "config.json"],
    "rca": ["posterior.csv", "rca_report.csv", "rca_accuracy.csv", "config.json"],
}


def cli_config(work: str, seed: int) -> dict:
    """The README's 5-atom example system, lengthened; paths inside `work`.

    `seed` is the `predict` seed (its hard edge-type draws). The corpus,
    training and the split keep the example's seed, so the corpus and the
    checkpoint are the same in every run.
    """
    corpus = os.path.join(work, "generate", "corpus.txt")
    checkpoint = os.path.join(work, "train", "checkpoint.json")
    return {
        "schema_version": 1,
        "generate": {
            "scm": {
                "n_nodes": 5, "n_dims": 3,
                "edges": [[0, 3, 1], [1, 4, 1]],
                "k_attract": 9.5, "k_switch": 1.0,
                "noise_std": 0.1, "step_size": 0.1,
                "change_set": [3], "static_nodes": [0, 1],
            },
            "t_total": CLI_T_TOTAL, "window": CLI_WINDOW, "seed": CLI_RUN_SEED,
        },
        "train": {
            "corpus": corpus, "phase": "rca",
            "config": {"epochs": CLI_EPOCHS, "seed": CLI_RUN_SEED},
            "split": dict(CLI_SPLIT, seed=CLI_RUN_SEED),
        },
        "predict": {"checkpoint": checkpoint, "corpus": corpus, "seed": seed},
        "evaluate": {"truth": corpus,
                     "predicted": os.path.join(work, "predict", "predicted.txt")},
        "rca": {"checkpoint": checkpoint, "corpus": corpus, "top_k": CLI_TOP_K},
    }


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_corpus_csv(path: str) -> np.ndarray:
    """Positions [S, N, T, D] from a corpus file, read without hbrca.

    Checks that the rows come in (sample, atom, t) order with no gaps.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh.read().splitlines()]
    n, t, d = meta["n_atoms"], meta["n_steps"], meta["n_dims"]
    check(header[:3] == ["sample", "atom", "t"] and len(header) == 3 + d, "corpus header")
    check(len(rows) % (n * t) == 0, "corpus row count")
    s = len(rows) // (n * t)
    keys = np.array([[int(v) for v in r[:3]] for r in rows])
    expect = np.stack(np.meshgrid(np.arange(s), np.arange(n), np.arange(t),
                                  indexing="ij"), axis=-1).reshape(-1, 3)
    check(np.array_equal(keys, expect), "corpus rows out of order")
    values = np.array([[float(v) for v in r[3:]] for r in rows])
    return values.reshape(s, n, t, d)


def cli_workload(run: Run) -> dict:
    work = run.work_dir
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cli_config(work, run.seed), fh, indent=2)

    def hbrca_cli(hb, name: str) -> None:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = hb.cli.main([name, "--config", cfg_path, "--out", os.path.join(work, name)])
        check(code == 0, f"hbrca {name} exited {code}: {log.getvalue()[-500:]}")

    def outputs(name: str) -> dict:
        return {f: _digest(os.path.join(work, name, f)) for f in CLI_OUTPUTS[name]}

    def generate(hb):
        hbrca_cli(hb, "generate")
        return outputs("generate")

    generated = run.setup(generate, CLI_SETUP_REPEATS)
    check(all(g == generated[0] for g in generated), "repeated generate differs")
    hb = run.hb

    def command(name: str) -> dict:
        run.op(name, hbrca_cli, hb, name)
        return outputs(name)

    run.start_measuring()
    stages = ("train", "predict", "evaluate", "rca")
    first = {name: command(name) for name in stages}
    pipeline_s = sum(run.times[s][0] for s in stages)

    def one_round():
        for name in stages:
            check(command(name) == first[name], f"repeated hbrca {name} differs")

    run.repeat_rounds(1, one_round)

    with run.unchecked():
        corpus_path = os.path.join(work, "generate", "corpus.txt")
        corpus = hb.corpus.load(corpus_path)
        own = read_corpus_csv(corpus_path)
        check(np.array_equal(own, corpus.positions), "own corpus reader differs from hbrca")
        predicted = read_corpus_csv(os.path.join(work, "predict", "predicted.txt"))
        check(np.all(np.isfinite(predicted)), "non-finite predictions")
        check(np.array_equal(predicted[:, :, 0], own[:, :, 0]), "predicted step 0 differs")
        mse = float(np.mean((predicted[:, :, 1:] - own[:, :, 1:]) ** 2))
        with open(os.path.join(work, "evaluate", "errors.csv"), encoding="utf-8") as fh:
            reported = float(fh.read().splitlines()[1].split(",")[0])
        check(abs(reported - mse) <= 1e-12 * abs(mse), f"errors.csv mse {reported} vs {mse}")
        hashes = set()
        for name in ("generate",) + stages:
            with open(os.path.join(work, name, "config.json"), encoding="utf-8") as fh:
                hashes.add(json.load(fh)["corpus_hash"])
        check(len(hashes) == 1, f"config echoes report {len(hashes)} corpus hashes")
        with open(os.path.join(work, "rca", "rca_report.csv"), encoding="utf-8") as fh:
            ranked = [line.split(",") for line in fh.read().splitlines()[1:]]
        check(sorted(r[1] for r in ranked) == sorted(corpus.atom_names),
              "rca_report does not rank every atom once")
        check(all(float(r[2]) >= 0.0 for r in ranked), "negative RCA score")
        split = hb.corpus.SplitSpec(**CLI_SPLIT, seed=CLI_RUN_SEED)
        n_train = len(hb.corpus.split_windows(corpus, split)[0])
        model = hb.training.Checkpoint.load(os.path.join(work, "train", "checkpoint.json")).build_model()
        check_reference(run, model, corpus.positions[_sample(corpus.n_samples)])
    n = corpus.n_samples
    return {
        "pipeline_s": pipeline_s,
        "train_windows_per_s": n_train * CLI_EPOCHS / run.median("train"),
        "infer_windows_per_s": n / run.median("predict"),
        "rca_windows_per_s": n / run.median("rca"),
        "pred_mse": reported,
        "hold_first_mse": hold_first_mse(own),
    }


WORKLOADS = {
    "rca-recovery": lambda run: library_workload(run, RCA_RECOVERY),
    "predict-long": lambda run: library_workload(run, PREDICT_LONG),
    "cli-files": cli_workload,
}
DEFAULT_SEEDS = {"rca-recovery": RCA_RECOVERY.system_seed,
                 "predict-long": PREDICT_LONG.system_seed, "cli-files": CLI_RUN_SEED}
