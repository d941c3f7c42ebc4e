#!/usr/bin/env python3
"""Show how predictive accuracy responds to the inducing-point budget.

Uses a decision boundary with sub-lengthscale wiggle, so a handful of
inducing points cannot represent it while a larger budget can: cross-
validated error should fall (then flatten) as m grows.
"""

import numpy as np

from pggpc.data import kfold
from pggpc.inference import TrainConfig, fit
from pggpc.model import Dataset
from pggpc.prediction import evaluate


def make_wavy(n=2000, seed=12):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(n, 2))
    margin = X[:, 1] - 1.2 * np.sin(2.2 * X[:, 0])
    y = np.where(margin > 0.0, 1.0, -1.0)
    flip = rng.random(n) < 0.02  # 2% label noise
    y[flip] = -y[flip]
    return Dataset(X, y)


def main():
    data = make_wavy()
    folds = kfold(data.n, 5, seed=0)
    print(f"wavy-boundary synthetic: n={data.n}, 5-fold CV, 2% label noise")
    print(f"{'m':>5} {'cv error':>9} {'cv nll':>8} {'seconds':>8}")
    for m in (4, 8, 16, 32, 64, 128):
        errors, nlls, seconds = [], [], []
        for i, (train_idx, test_idx) in enumerate(folds):
            train = Dataset(data.X[train_idx], data.y[train_idx])
            test = Dataset(data.X[test_idx], data.y[test_idx])
            config = TrainConfig(num_inducing=m, batch_size=100, max_iters=250,
                                 hyper_every=0, seed=1000 * m + i)
            result = fit(train, config)
            report = evaluate(result.state, test)
            errors.append(report.error_rate)
            nlls.append(report.mean_nll)
            seconds.append(result.wall_seconds)
        print(f"{m:>5} {np.mean(errors):>9.4f} {np.mean(nlls):>8.4f} "
              f"{np.sum(seconds):>8.2f}")
    print("error falls as the budget resolves the boundary, then saturates")


if __name__ == "__main__":
    main()
