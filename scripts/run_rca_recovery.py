"""Root-cause recovery experiment on the synthetic intervention corpus.

Trains the RCA recipe on a 10-node spring system whose change-set nodes
(|S| = 2) switch binding at mid-trajectory, then scores top-2 agreement
with the three distributional ground-truth oracles across seeds.

Usage: python scripts/run_rca_recovery.py [out_dir] [n_seeds]
"""

import os
import sys
import time

import numpy as np

from hbrca.experiments import rca_recovery_run
from hbrca.rca import accuracy_csv, aggregate_accuracy


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    os.makedirs(out_dir, exist_ok=True)
    per_seed = []
    for seed in range(n_seeds):
        t0 = time.time()
        acc, scores, _, _ = rca_recovery_run(seed)
        per_seed.append(acc)
        order = np.argsort(-scores)
        print(
            f"seed {seed}: {time.time() - t0:5.1f}s accuracy {acc} "
            f"model-top4 {order[:4].tolist()}",
            flush=True,
        )
    content = accuracy_csv(aggregate_accuracy(per_seed))
    with open(os.path.join(out_dir, "rca_recovery_accuracy.csv"), "w", encoding="utf-8") as fh:
        fh.write(content)
    print(content)


if __name__ == "__main__":
    main()
