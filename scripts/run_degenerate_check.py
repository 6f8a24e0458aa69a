"""Null-intervention control: identical regimes must yield near-zero scores.

Trains the RCA recipe on a corpus whose persist/separated halves share
every mechanism, then prints the node scores and the no-change flag.

Usage: python scripts/run_degenerate_check.py [seed]
"""

import sys

import numpy as np

from hbrca.corpus import SplitSpec
from hbrca.experiments import build_degenerate_corpus
from hbrca.rca import run_rca
from hbrca.training import TrainConfig, train


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    corpus = build_degenerate_corpus(seed=seed)
    config = TrainConfig.rca(seed=seed)
    ckpt = train(config, corpus, SplitSpec(seed=seed), log=print)
    model = ckpt.build_model()
    ranking, _ = run_rca(model, corpus, k=2)
    print(f"max node score: {np.max(ranking.scores):.3e}")
    print(f"no mechanism change detected: {ranking.no_change_detected}")
    print(ranking.to_csv())


if __name__ == "__main__":
    main()
