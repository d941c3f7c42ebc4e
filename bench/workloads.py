"""Workload definitions and their seeded input generators.

Each workload turns ``--seed`` into input files written through
``pggpc.data.save``; the program under test only ever sees those files.
The sizes and settings are fixed here so that the parent commit and a
change run identical work.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from pggpc.data import save
from pggpc.model import Dataset


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # input file format: "libsvm" or "csv"
    n: int  # training points
    d: int
    m: int  # inducing points
    s: int  # mini-batch size
    n_test: int  # in-distribution held-out points (the test_nll set)
    n_shifted: int = 0  # held-out points shifted by +shift in every coordinate
    shift: float = 0.0
    max_iters: int = 0  # VI iteration budget (SVI fits use conv_threshold=0 to run all of it)
    hyper_every: int = 10
    amplitude: float | None = None  # initial kernel amplitude (None: library default)
    sweeps: int = 0  # gibbs-check sweeps
    # Held-out error above this fails the check.  The ceilings sit well above
    # the seed commit's errors (about 0.14, 0.13 and 0.13 at seed 1).
    error_ceiling: float = 0.5

    @property
    def grid(self):
        return {"n": self.n, "m": self.m, "s": self.s, "d": self.d}


WORKLOADS = {
    # Full-data passes at the default settings.  With hyper_every=10 every
    # tenth iteration runs build_gram, local_update and hyper_grad/kern_grad
    # over all n=20000 rows: ~4.4k Gram rows per iteration against 100 per
    # batch.  Those iterations take 0.5-0.65 s against 5-7 ms for a plain
    # step, so full-row work is ~80% of fit_s and sets iter_ms.p95.
    # A fit of 50 iterations (5 hyperparameter steps) takes ~4 s, so a 40-s
    # run holds about eight fits.  Prediction is small here (5000 points at
    # m=100, ~0.1 s).
    "svi-bign": Workload(
        name="svi-bign", fmt="libsvm", n=20000, d=8, m=100, s=100, n_test=5000,
        max_iters=50, hyper_every=10, error_ceiling=0.20,
    ),
    # The plain O(s m^2 + m^3) step at its largest: m=300 with fixed
    # hyperparameters (hyper_every=0, as gibbs-check and the demos train),
    # so hyper_step never runs and a hyperparameter-step change should not
    # move this workload.  The 3-operand einsums in local_update and the
    # bound estimate dominate fit_s; natural_to_moments and
    # natural_gradient follow.  60 iterations (~4 s) keep several fits in a
    # run.  The bulk prediction scores 12000 points (~1.7 s); the shifted
    # half sits ~3 lengthscales from the data, where the predictive
    # variance (~amplitude^2 = 2.25) exceeds class_prob's single-rule cap
    # of 1.0625, so half of all inputs take the wide comb branch.
    "svi-bigm": Workload(
        name="svi-bigm", fmt="libsvm", n=4000, d=8, m=300, s=100, n_test=6000,
        n_shifted=6000, shift=3.0, max_iters=60, hyper_every=0, amplitude=1.5,
        error_ceiling=0.25,
    ),
    # The only workload that runs pg and gibbs: `pggpc gibbs-check` on 200
    # points in 2-D, 500 sweeps (~1.6 s, so a 40-s run holds about 17
    # checks; the agreement check passes on seeds 1-30 with prob gaps
    # <= 0.03 against its 0.05 limit), burn-in a fifth, thinning 2.  In the
    # traced baseline f_conditional is ~50% of check_s, chol_with_escalation
    # ~20%, pg_sample ~10% and the full-GP variational fit (m = n, full
    # batch, rho = 1) ~15%; each sweep costs O(n^3).  The VI fit is capped at 8
    # iterations: left to its 1e-10 stopping rule it runs 8-10 depending on
    # the seed, which would make fit_s vary with the data.
    "gibbs-oracle": Workload(
        name="gibbs-oracle", fmt="csv", n=200, d=2, m=200, s=200, n_test=2000,
        max_iters=8, sweeps=500, error_ceiling=0.30,
    ),
}


def _boundary(X):
    """Smooth nonlinear decision function shared by every workload."""
    f = np.sin(1.5 * X[:, 0]) + 0.8 * X[:, 1] ** 2 - 0.8
    if X.shape[1] > 2:
        f = f + 0.7 * X[:, 2] * X[:, 3] - 0.5 * X[:, 4] + 0.3 * np.cos(2.0 * X[:, 5])
    return f


def _labeled(rng, n, d, shift=0.0, flip=0.05):
    X = rng.standard_normal((n, d))
    y = np.where(_boundary(X) > 0.0, 1.0, -1.0)
    y[rng.random(n) < flip] *= -1.0
    return Dataset(X + shift, y)


def generate(workload, seed, out_dir):
    """Write the workload's input files for ``seed``; return their paths.

    Keys: ``train`` and ``test`` always, ``shifted`` when the workload has
    a shifted held-out set.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    sets = {
        "train": _labeled(rng, workload.n, workload.d),
        "test": _labeled(rng, workload.n_test, workload.d),
    }
    if workload.n_shifted:
        sets["shifted"] = _labeled(rng, workload.n_shifted, workload.d, shift=workload.shift)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, ds in sets.items():
        paths[key] = os.path.join(out_dir, f"{key}.{workload.fmt}")
        save(ds, paths[key], workload.fmt)
    return paths
