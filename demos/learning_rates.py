#!/usr/bin/env python3
"""Compare the self-tuning learning rate against fixed rates.

All runs see identical mini-batch streams; only the step-size rule differs.
The adaptive rule estimates the natural gradient's signal-to-noise ratio
from moving averages: it starts near 1 while the batch gradients agree and
anneals itself toward zero as they start to cancel near the optimum, so
there is no constant to tune.  Fixed rates can do as well -- if the
constant happens to suit the problem; too large and the bound oscillates
instead of settling.
"""

import numpy as np

from pggpc.inference import TrainConfig, fit
from pggpc.model import Dataset
from pggpc.prediction import evaluate


def make_blobs(n, seed):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate(
        [rng.normal(-1.2, 1.0, size=(half, 2)), rng.normal(1.2, 1.0, size=(half, 2))]
    )
    y = np.concatenate([-np.ones(half), np.ones(half)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order])


def run(data, fixed_lr):
    config = TrainConfig(
        num_inducing=16, batch_size=64, max_iters=600, conv_threshold=0.0,
        fixed_lr=fixed_lr, hyper_every=0, seed=0,
    )
    return fit(data, config)


def main():
    train = make_blobs(1500, seed=7)
    test = make_blobs(1000, seed=99)
    print(f"n={train.n}, m=16, batch=64, 600 iterations, identical batch streams\n")
    print(f"{'rule':>12} {'bound':>9} {'test error':>11} {'test nll':>9} "
          f"{'first rho':>10} {'median rho':>11}")
    for label, lr in (("adaptive", None), ("fixed 0.5", 0.5), ("fixed 0.05", 0.05)):
        result = run(train, lr)
        report = evaluate(result.state, test)
        rho = result.trace[:, 3]
        print(f"{label:>12} {result.final_elbo:>9.2f} {report.error_rate:>11.4f} "
              f"{report.mean_nll:>9.4f} {rho[0]:>10.3f} {np.median(rho):>11.4f}")
    print(
        "\nall rules reach the same predictive accuracy here; the adaptive one"
        "\ndoes it unattended, opening at rho~1 and annealing itself to ~1e-3."
        "\n(run longer and the fixed 0.5 bound keeps wandering while the small"
        "\nand the adaptive rates settle)"
    )


if __name__ == "__main__":
    main()
