"""Prediction-error sweep over window lengths on one long trajectory.

Windows a 10,000-step synthetic corpus at several lengths T, trains a
prediction-phase model per T and reports test MSE/MAE per T (shorter
windows should not be harder). The sweep is `hbrca.experiments.prediction_trend`,
which acceptance criterion 6 runs too.

Usage: python scripts/run_prediction_trend.py [out_dir] [epochs]
"""

import os
import sys
import time

from hbrca.experiments import prediction_trend
from hbrca.metrics import sweep_csv


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    os.makedirs(out_dir, exist_ok=True)
    started = [time.time()]

    def log(row):
        t_window, samples, err_mse, err_mae = row
        print(f"T={t_window}: {time.time() - started[0]:5.1f}s samples={samples} "
              f"mse={err_mse:.5f} mae={err_mae:.5f}", flush=True)
        started[0] = time.time()

    content = sweep_csv(prediction_trend(epochs, log=log))
    with open(os.path.join(out_dir, "prediction_trend.csv"), "w", encoding="utf-8") as fh:
        fh.write(content)
    print(content)


if __name__ == "__main__":
    main()
