"""Batch entry points: generate | train | predict | evaluate | rca.

Every command takes a JSON run config plus an output directory and
writes a resolved-config echo (including the corpus hash) next to its
outputs, so a run can be reproduced from the output directory alone.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .encoder import export_posterior_csv
from .errors import ConfigError, DataError, HbrcaError, NumericalError, ParameterError, check_number
from .model import predict_corpus
from .rca import accuracy_csv, run_rca
from .springs import ScmSpec, simulate
from .training import Checkpoint, SplitSpec, TrainConfig, train, write_metrics_csv

SCHEMA_VERSION = 1

_SECTION_KEYS = {
    "generate": {"scm", "t_total", "window", "seed", "normalize"},
    "train": {"corpus", "phase", "config", "split", "normalize"},
    "predict": {"checkpoint", "corpus", "normalize", "seed"},
    "evaluate": {"truth", "predicted"},
    "rca": {"checkpoint", "corpus", "top_k", "normalize"},
}

# check_number bounds of the numbers a section may hold (`window` may be null)
_NUMBERS = {
    "t_total": dict(integer=True, minimum=2),
    "window": dict(integer=True, minimum=2),
    "seed": dict(integer=True, minimum=0),
    "top_k": dict(integer=True, minimum=1),
}


def load_run_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - {"schema_version"} - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    if command not in doc:
        raise ConfigError(f"config has no '{command}' section")
    section = doc[command]
    if not isinstance(section, dict):
        raise ConfigError(f"'{command}' section must be an object")
    unknown = set(section) - _SECTION_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown '{command}' keys {sorted(unknown)}")
    for key in _NUMBERS.keys() & section.keys():
        if not (key == "window" and section[key] is None):
            _config(f"{command}.{key}", check_number, key, section[key], **_NUMBERS[key])
    if not isinstance(section.get("normalize", True), bool):
        raise ConfigError(
            f"'{command}.normalize' must be true or false, got {section['normalize']!r}"
        )
    return section


def _config(where: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with a bad value in it (out of range, of the
    wrong type, or an unknown keyword) reported as a ConfigError naming
    `where`: the one path by which run-config values are checked."""
    try:
        return build(*args, **kwargs)
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(f"'{where}': {exc}") from exc


def write_echo(out_dir: str, command: str, section: dict, extra: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, command: section}
    doc.update(extra)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_corpus(path: str, do_normalize: bool):
    corpus = corpus_mod.load(path)
    if do_normalize:
        corpus = corpus_mod.normalize(corpus)
    return corpus


def _write_tables(out_dir: str, tables: dict) -> None:
    """Write each table's text to the file of its name in `out_dir`."""
    for name, content in tables.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)


def _checked_corpus(section: dict, checkpoint: Checkpoint, allow_mismatch: bool):
    """The section's corpus (normalized unless turned off) and its canonical
    hash. It must be the checkpoint's training corpus (unless allowed) and
    have the window length and dimension the checkpoint was built for.

    The hash of the file's text is the canonical hash when it equals the
    checkpoint's, which `train` took from a serialization, and normalize
    left the parsed corpus as it was (it divided by exactly 1.0, which
    holds exactly when no value changed). In every other case the corpus
    is serialized again to hash it.
    """
    text = corpus_mod.read_text(section["corpus"])
    parsed = corpus_mod.loads(text)
    corpus = parsed
    if section.get("normalize", True):
        corpus = corpus_mod.normalize(parsed)
    digest = corpus_mod.hash_content(text)
    if digest != checkpoint.corpus_hash or not np.array_equal(corpus.positions, parsed.positions):
        digest = corpus_mod.corpus_hash(corpus)
    if checkpoint.corpus_hash != digest and not allow_mismatch:
        raise DataError(
            "corpus hash does not match the checkpoint's training corpus "
            f"({digest[:12]}... vs {checkpoint.corpus_hash[:12]}...); "
            "pass --allow-hash-mismatch to proceed"
        )
    for key, value in (("t_window", corpus.n_steps), ("n_dims", corpus.n_dims)):
        if checkpoint.arch.get(key) != value:
            raise DataError(
                f"corpus has {key} {value}, the checkpoint was trained with "
                f"{key} {checkpoint.arch.get(key)}"
            )
    return corpus, digest


# -- commands -------------------------------------------------------------------


def cmd_generate(section: dict, out_dir: str, seed_override) -> dict:
    if "scm" not in section or "t_total" not in section:
        raise ConfigError("generate section requires 'scm' and 't_total'")
    seed = section.get("seed", 0) if seed_override is None else seed_override
    spec = _config("generate.scm", ScmSpec.from_dict, section["scm"])
    corpus, _ = simulate(spec, section["t_total"], seed)
    if section.get("window") is not None:
        corpus = _config("generate.window", corpus_mod.window_corpus, corpus, section["window"])
    if section.get("normalize", True):
        corpus = corpus_mod.normalize(corpus)
    digest = corpus_mod.save(corpus, os.path.join(out_dir, "corpus.txt"))
    print(f"generated {corpus.n_samples} samples of "
          f"[{corpus.n_atoms} x {corpus.n_steps} x {corpus.n_dims}]")
    return {"corpus_hash": digest, "seed": seed}


def cmd_train(section: dict, out_dir: str, seed_override) -> dict:
    if "corpus" not in section:
        raise ConfigError("train section requires 'corpus'")
    corpus = _load_corpus(section["corpus"], section.get("normalize", True))
    phase = section.get("phase", "prediction")
    if phase == "prediction":
        build = functools.partial(TrainConfig.prediction, corpus.n_steps)
    elif phase == "rca":
        build = TrainConfig.rca
    else:
        raise ConfigError(f"unknown training phase '{phase}'")
    seed = {} if seed_override is None else {"seed": seed_override}
    config = _config("train.config", lambda: build(**{**section.get("config", {}), **seed}))
    split = None
    if "split" in section:
        split = _config("train.split", lambda: SplitSpec(**section["split"]))
    checkpoint = train(config, corpus, split, log=print)
    checkpoint.save(os.path.join(out_dir, "checkpoint.json"))
    write_metrics_csv(checkpoint.history, os.path.join(out_dir, "metrics.csv"))
    print(f"best val MSE {checkpoint.best_val_mse:.6g} at epoch {checkpoint.epoch}")
    return {
        "corpus_hash": checkpoint.corpus_hash,
        "seed": config.seed,
        "resolved_train_config": config.to_dict(),
        "init_scheme": checkpoint.init_scheme,
    }


def cmd_predict(section: dict, out_dir: str, seed_override, allow_mismatch) -> dict:
    for key in ("checkpoint", "corpus"):
        if key not in section:
            raise ConfigError(f"predict section requires '{key}'")
    checkpoint = Checkpoint.load(section["checkpoint"])
    corpus, digest = _checked_corpus(section, checkpoint, allow_mismatch)
    seed = section.get("seed", 0) if seed_override is None else seed_override
    model = checkpoint.build_model()
    predicted = predict_corpus(model, corpus, checkpoint.config.tau, seed)
    corpus_mod.save(predicted, os.path.join(out_dir, "predicted.txt"))
    print(f"predicted {predicted.n_samples} windows")
    return {"corpus_hash": digest, "seed": seed}


def cmd_evaluate(section: dict, out_dir: str) -> dict:
    for key in ("truth", "predicted"):
        if key not in section:
            raise ConfigError(f"evaluate section requires '{key}'")
    truth = _load_corpus(section["truth"], do_normalize=False)
    pred = _load_corpus(section["predicted"], do_normalize=False)
    if truth.positions.shape != pred.positions.shape:
        raise DataError(
            f"truth {truth.positions.shape} and predicted "
            f"{pred.positions.shape} extents differ"
        )
    err_mse = metrics_mod.mse(pred.positions[:, :, 1:, :], truth.positions[:, :, 1:, :])
    err_mae = metrics_mod.mae(pred.positions[:, :, 1:, :], truth.positions[:, :, 1:, :])
    _write_tables(out_dir, {
        "displacement.csv": metrics_mod.displacement_csv(truth, pred),
        "rmsf_time.csv": metrics_mod.rmsf_time_csv(truth, pred),
        "rmsf_atom.csv": metrics_mod.rmsf_atom_csv(truth, pred),
        "errors.csv": "mse,mae\n" + corpus_mod.format_rows("%.17g,%.17g\n", [err_mse], [err_mae]),
    })
    print(f"mse {err_mse:.6g} mae {err_mae:.6g}")
    return {"corpus_hash": corpus_mod.corpus_hash(truth)}


def cmd_rca(section: dict, out_dir: str, allow_mismatch) -> dict:
    for key in ("checkpoint", "corpus"):
        if key not in section:
            raise ConfigError(f"rca section requires '{key}'")
    checkpoint = Checkpoint.load(section["checkpoint"])
    corpus, digest = _checked_corpus(section, checkpoint, allow_mismatch)
    top_k = section.get("top_k", min(10, corpus.n_atoms))
    if not 1 <= top_k <= corpus.n_atoms:
        raise ConfigError(
            f"'rca.top_k' is {top_k}; it must lie in [1, {corpus.n_atoms}] (the atom count)"
        )
    model = checkpoint.build_model()
    report, posterior = run_rca(model, corpus, k=top_k)
    rows = {
        metric: (None if value is None else (value, 0.0))
        for metric, value in report.accuracy.items()
    }
    _write_tables(out_dir, {
        "posterior.csv": export_posterior_csv(posterior),
        "rca_report.csv": report.to_csv(),
        "rca_accuracy.csv": accuracy_csv(rows),
    })
    if report.no_change_detected:
        print("no mechanism change detected")
    top_names = [corpus.atom_names[i] for i in report.top_k]
    print(f"top-{top_k} root causes: {', '.join(top_names)}")
    return {
        "corpus_hash": digest,
        "no_change_detected": report.no_change_detected,
        "score": report.score,
        "top_k": top_names,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbrca",
        description="Latent causal graphs, trajectory prediction and "
        "root-cause ranking for multi-entity trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SECTION_KEYS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run config")
        cmd.add_argument("--out", required=True, help="output directory")
        if name in ("generate", "train", "predict"):
            cmd.add_argument("--seed", type=int, help="override run seed")
        if name in ("predict", "rca"):
            cmd.add_argument(
                "--allow-hash-mismatch", action="store_true",
                help="proceed when the corpus hash differs from the checkpoint's",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _config("--seed", check_number, "seed", args.seed, integer=True, minimum=0)
        section = load_run_config(args.config, args.command)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "generate":
            extra = cmd_generate(section, args.out, args.seed)
        elif args.command == "train":
            extra = cmd_train(section, args.out, args.seed)
        elif args.command == "predict":
            extra = cmd_predict(section, args.out, args.seed, args.allow_hash_mismatch)
        elif args.command == "evaluate":
            extra = cmd_evaluate(section, args.out)
        else:
            extra = cmd_rca(section, args.out, args.allow_hash_mismatch)
        write_echo(args.out, args.command, section, extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except HbrcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
