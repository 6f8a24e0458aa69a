"""Benchmark of hbrca's train -> predict -> RCA paths.

    python3 perfbench/run.py --workload rca-recovery --seed 0 --seconds 25 --trace 0

Runs one workload in this single process, against the hbrca sources in
`src/` next to this directory, with OpenBLAS and OpenMP pinned to one
thread. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Traced runs also write their spans to `perfbench_out/`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402,F401  (loaded before the timed import of hbrca)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
BENCH = os.path.dirname(os.path.abspath(__file__))

END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_windows_per_s", "windows/s"),
    ("infer_windows_per_s", "windows/s"),
    ("rca_windows_per_s", "windows/s"),
    ("pred_mse", "1"),
    ("peak_rss_mb", "MB"),
]
HBRCA_MODULES = ("hbrca", "hbrca.experiments", "hbrca.cli", "hbrca.graph")


def import_hbrca():
    """Import hbrca afresh from this checkout's `src/` only."""
    if not os.path.isfile(os.path.join(SRC, "hbrca", "__init__.py")):
        raise SystemExit(f"error: no hbrca sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "hbrca" or m.startswith("hbrca.")]:
        del sys.modules[name]
    for name in HBRCA_MODULES:
        importlib.import_module(name)
    hb = sys.modules["hbrca"]
    if os.path.dirname(os.path.dirname(os.path.abspath(hb.__file__))) != SRC:
        raise SystemExit(f"error: imported hbrca from {hb.__file__}, not {SRC}")
    return hb


def parse_args(argv=None):
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS, DEFAULT_SEEDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long to keep repeating stages after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import spans
    import workloads

    import_hbrca()  # fail before any work when the sources are missing
    tracer = spans.Tracer() if args.trace else None
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    run = workloads.Run(import_hbrca, args.seed, args.seconds, tracer, work)
    try:
        figures = workloads.WORKLOADS[args.workload](run)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": 0, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(run.times["setup"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    summary = dict(figures, setup_s=setup_s, peak_rss_mb=peak_rss_mb, stage_times=run.times,
                   cpu_user_s=usage.ru_utime, cpu_sys_s=usage.ru_stime,
                   minor_faults=usage.ru_minflt,
                   workload=args.workload, seed=args.seed, traced=bool(args.trace))
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    if tracer is not None:
        layer = tracer.metrics()
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                     dict(summary, per_layer=layer))
        if tracer.missing:
            print(f"trace: missing {', '.join(tracer.missing)}", file=sys.stderr)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in spans.per_layer_schema()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
