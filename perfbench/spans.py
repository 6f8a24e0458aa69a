"""Spans and counters around the public functions of each hbrca layer.

Nothing inside the program changes: `Tracer.install` replaces module
attributes with wrappers, in every hbrca module that binds the same
function object (a name brought in with ``from … import …`` is a second
binding, and a wrapper on the defining module alone would never see its
calls). A name listed here that the program no longer defines is
reported as missing instead of failing the run.

Spans are kept in memory as (id, parent, name, start, end) and written
out once, when the run ends. A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

# layer -> public names wrapped with a span; "Class.method" wraps a method
SPANS = {
    "springs": ["simulate", "label_hb_events"],
    "corpus": ["serialize", "save", "loads", "load", "corpus_hash", "normalize",
               "denormalize", "window_corpus", "split_windows"],
    "tensor": ["Tensor.backward"],
    "layers": ["adam_step", "gumbel_softmax"],
    "encoder": ["encode_logits", "encode", "sample_edges", "export_posterior_csv"],
    "decoder": ["rollout_train", "rollout_eval", "step", "rollout"],
    "model": ["encode_windows", "predict_windows", "eval_mse", "predict_corpus",
              "mean_posterior"],
    "training": ["composite_loss", "train", "write_metrics_csv", "Checkpoint.save",
                 "Checkpoint.load", "Checkpoint.build_model"],
    "rca": ["rca_scores", "run_rca", "GroundTruthOracle.fit"],
    "metrics": ["displacement_csv", "rmsf_time_csv", "rmsf_atom_csv", "mse", "mae"],
    "cli": ["cmd_generate", "cmd_train", "cmd_predict", "cmd_evaluate", "cmd_rca"],
}

# tensor functions that are not tape ops; every other public function
# of hbrca.tensor counts towards tensor.op_calls
TENSOR_NON_OPS = {"no_grad", "grad_enabled", "assert_finite", "collect_grads"}

# per-layer time metric -> span name; each reports the span's self time
# in seconds plus its call count as "<metric minus _s>_calls"
TIMED = {
    "springs.simulate_s": "springs.simulate",
    "corpus.serialize_s": "corpus.serialize",
    "corpus.loads_s": "corpus.loads",
    "tensor.backward_s": "tensor.Tensor.backward",
    "layers.adam_s": "layers.adam_step",
    "layers.gumbel_s": "layers.gumbel_softmax",
    "encoder.train_s": "encoder.encode_logits[train]",
    "encoder.eval_s": "encoder.encode_logits[eval]",
    "decoder.rollout_train_s": "decoder.rollout_train",
    "decoder.rollout_eval_s": "decoder.rollout_eval",
    "model.encode_s": "model.encode_windows",
    "model.predict_s": "model.predict_windows",
    "model.validate_s": "model.eval_mse",
    "training.loss_s": "training.composite_loss",
    "training.train_self_s": "training.train",
    "training.checkpoint_save_s": "training.Checkpoint.save",
    "training.checkpoint_load_s": "training.Checkpoint.load",
    "rca.scores_s": "rca.rca_scores",
    "rca.oracle_s": "rca.GroundTruthOracle.fit",
    "metrics.evaluate_s": "metrics.*",
    "cli.generate_s": "cli.cmd_generate",
    "cli.train_s": "cli.cmd_train",
    "cli.predict_s": "cli.cmd_predict",
    "cli.evaluate_s": "cli.cmd_evaluate",
    "cli.rca_s": "cli.cmd_rca",
}

COUNTED = [
    ("springs.steps", "count"),
    ("corpus.hash_calls", "count"),
    ("corpus.distinct_hashes", "count"),
    ("corpus.rows_serialized", "count"),
    ("corpus.bytes_written", "bytes"),
    ("tensor.op_calls", "count"),
    ("tensor.matmul_gflop", "GFLOP"),
    ("encoder.windows", "count"),
    ("decoder.steps", "count"),
    ("decoder.none_edge_share", "1"),
    ("training.checkpoint_bytes", "bytes"),
    ("trace.missing", "count"),
]


def _calls_name(metric: str) -> str:
    return metric[: -len("_s")] + "_calls"


def per_layer_schema() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for metric in TIMED:
        out.append((metric, "s", "lower"))
        calls = _calls_name(metric)
        if calls not in {name for name, _ in COUNTED}:
            out.append((calls, "count", "lower"))
    for name, unit in COUNTED:
        better = "higher" if name == "decoder.none_edge_share" else "lower"
        out.append((name, unit, better))
    return out


class Tracer:
    """In-memory spans plus counters; `active` False passes calls through."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.counts = defaultdict(float)
        self.hashes = set()
        self.missing = []
        self.active = True

    # -- wrapping ----------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, names in SPANS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for qual in names:
                if module is None:
                    self.missing.append(f"{layer}.{qual}")
                    continue
                self._wrap_name(modules, module, layer, qual)
        tensor = sys.modules.get(f"{package}.tensor")
        ops = [(name, fn) for name, fn in inspect.getmembers(tensor, inspect.isfunction)
               if fn.__module__ == f"{package}.tensor" and not name.startswith("_")
               and name not in TENSOR_NON_OPS]
        if not ops:
            self.missing.append("tensor ops")
        for name, fn in ops:
            self._rebind(modules, fn, self._op_counter(name, fn))
        step_flat = getattr(sys.modules.get(f"{package}.decoder"), "step_flat", None)
        if step_flat is None:
            self.missing.append("decoder.step_flat")
        else:
            self._rebind(modules, step_flat, self._step_counter(step_flat))

    def _wrap_name(self, modules, module, layer, qual) -> None:
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name, None)
            raw = inspect.getattr_static(cls, meth, None) if cls is not None else None
            if raw is None:
                self.missing.append(f"{layer}.{qual}")
                return
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._span(f"{layer}.{qual}", fn)
            setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
            return
        fn = getattr(module, qual, None)
        if not callable(fn):
            self.missing.append(f"{layer}.{qual}")
            return
        self._rebind(modules, fn, self._span(f"{layer}.{qual}", fn))

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _span(self, name, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name
            if name == "encoder.encode_logits":
                training = kwargs.get("training", args[2] if len(args) > 2 else False)
                label = f"{name}[{'train' if training else 'eval'}]"
            record = [len(self.spans), self.stack[-1][0] if self.stack else -1,
                      label, time.perf_counter(), None]
            self.spans.append(record)
            self.stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self, _Call(args, kwargs), result)
                except (LookupError, AttributeError, TypeError, OSError) as exc:
                    note = f"{name} counter ({exc!r})"
                    if note not in self.missing:
                        self.missing.append(note)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts["tensor.op_calls"] += 1
                if name == "matmul":
                    (m, k), n = args[0].shape, args[1].shape[1]
                    self.counts["tensor.matmul_gflop"] += 2.0 * m * k * n * 1e-9
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _step_counter(self, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts["decoder.steps"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple:
        """({span name: self seconds}, {span name: calls})."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs, calls = defaultdict(float), defaultdict(int)
        for sid, _, name, start, end in self.spans:
            selfs[name] += (end - start) - child[sid]
            calls[name] += 1
        return selfs, calls

    def metrics(self) -> dict:
        selfs, calls = self.self_times()
        out = {}
        for metric, span in TIMED.items():
            if span.endswith(".*"):
                prefix = span[:-1]
                seconds = sum(v for k, v in selfs.items() if k.startswith(prefix))
                n = sum(v for k, v in calls.items() if k.startswith(prefix))
            else:
                seconds, n = selfs.get(span, 0.0), calls.get(span, 0)
            out[metric] = seconds
            out[_calls_name(metric)] = n
        out["corpus.hash_calls"] = calls.get("corpus.corpus_hash", 0)
        out["corpus.distinct_hashes"] = len(self.hashes)
        rows = self.counts["decoder.edge_rows"]
        out["decoder.none_edge_share"] = self.counts["decoder.none_rows"] / rows if rows else 0.0
        out["trace.missing"] = len(self.missing)
        for name, _ in COUNTED:
            if name not in out:
                value = self.counts[name]
                out[name] = value if name == "tensor.matmul_gflop" else int(value)
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write the spans (one JSON object per line) after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(extra, missing=self.missing)) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


# -- per-span hooks that count work from arguments and results ---------------


class _Call:
    """A wrapped call's arguments, looked up by position or keyword."""

    def __init__(self, args, kwargs):
        self.args, self.kwargs = args, kwargs

    def __call__(self, position: int, name: str):
        return self.kwargs[name] if name in self.kwargs else self.args[position]


def _count_simulate(tracer, arg, result):
    tracer.counts["springs.steps"] += int(arg(1, "t_total"))


def _count_serialize(tracer, arg, result):
    corpus = arg(0, "corpus")
    tracer.counts["corpus.rows_serialized"] += corpus.n_samples * corpus.n_atoms * corpus.n_steps


def _count_save(tracer, arg, result):
    tracer.counts["corpus.bytes_written"] += os.path.getsize(arg(1, "path"))


def _count_hash(tracer, arg, result):
    tracer.hashes.add(result)


def _count_encode(tracer, arg, result):
    tracer.counts["encoder.windows"] += arg(1, "windows").shape[0]


def _count_rollout_eval(tracer, arg, result):
    edges = arg(2, "edge_onehots")
    tracer.counts["decoder.edge_rows"] += edges.shape[0]
    tracer.counts["decoder.none_rows"] += int((edges[:, 0] == 1.0).sum())


def _count_checkpoint(tracer, arg, result):
    tracer.counts["training.checkpoint_bytes"] += os.path.getsize(arg(1, "path"))


_HOOKS = {
    "springs.simulate": _count_simulate,
    "corpus.serialize": _count_serialize,
    "corpus.save": _count_save,
    "corpus.corpus_hash": _count_hash,
    "encoder.encode_logits": _count_encode,
    "decoder.rollout_eval": _count_rollout_eval,
    "training.Checkpoint.save": _count_checkpoint,
}
