#!/usr/bin/env python3
"""Per-call cost of each piece of an SVI step, written to BENCH_step.json.

For each (n, m, s, d) grid point the script draws n synthetic labeled rows
in-process (standard normal inputs, a smooth nonlinear boundary, 5% of the
labels flipped), fits them ``FITS`` times with fixed kernel hyperparameters
(``hyper_every=0``, ``conv_threshold=0``), and on the fitted state and one
mini-batch of s rows times each piece of an iteration: the batch
``build_gram`` against the state's K_mm factorization, kappa,
``GramRows.marginals``, ``natural_gradient``, ``natural_to_moments`` and
``elbo``, and the two pieces of a hyperparameter step: ``hyper_grad`` on
the batch and ``factorize`` at the state's Z and parameters.
``build_gram`` forms kappa with the rows, so its time includes kappa's;
the kappa piece times that GEMM, K_nm K_mm^{-1}, inline.  Each is the
median of ``--reps`` calls, in ms; the set-up's ``kmeanspp_init`` on the
n rows, 10-100x dearer, is the median of ``SETUP_REPS`` calls.
``iter_ms_p50`` is the median over the fits of each fit's median gap
between consecutive rows of its trace, so one slow fit does not move it.
``hyper_iter_ms_p50`` is the same median over ``FITS`` more fits with
``hyper_every=10``, taken over the gaps that hold an Adam step: an
iteration's trace row is written before its hyperparameter step, so the
step falls in the gap after the row of each tenth iteration.

The host's speed drifts between runs taken minutes apart, so each point
also records ``ref_ms``: the median ms of a fixed NumPy reference kernel
(a Cholesky, a triangular solve, a GEMM and elementwise exp/log on seeded
inputs), timed just before and just after the point, after one untimed
warm-up call.  Compare two runs'
pieces only as far as their ``ref_ms`` agree, or in units of it.

The run is stored under ``runs[<label>]`` of the output file; runs under
other labels are kept, so one file holds a before and an after run of the
same grid.  With no thread count in the environment, the BLAS is pinned to
one thread before NumPy loads, as the benchmark runs.

Usage:
    python3 scripts/step_costs.py --label after
    python3 scripts/step_costs.py --label smoke --grid 400,20,50,4 --reps 3 --out /tmp/s.json
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

# The checkout's sources, so the script runs without an install.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import solve_triangular  # noqa: E402

from pggpc.inference import (  # noqa: E402
    TrainConfig, elbo, fit, hyper_grad, local_update, natural_gradient,
)
from pggpc.kernel import build_gram, factorize  # noqa: E402
from pggpc.model import Dataset, kmeanspp_init, natural_to_moments  # noqa: E402

GRID = ((4000, 300, 100, 8), (20000, 100, 100, 8), (8000, 1000, 100, 8))
FIT_ITERS = 60
HYPER_EVERY = 10
FITS = 5
SETUP_REPS = 20
REF_REPS = 20


def _data(n, d, rng):
    X = rng.standard_normal((n, d))
    f = np.sin(1.5 * X[:, 0]) + 0.8 * X[:, 1] ** 2 - 0.8
    if d >= 6:
        f += 0.7 * X[:, 2] * X[:, 3] - 0.5 * X[:, 4] + 0.3 * np.cos(2.0 * X[:, 5])
    y = np.where(f > 0.0, 1.0, -1.0)
    y[rng.random(n) < 0.05] *= -1.0
    return Dataset(X, y)


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def _reference_kernel():
    """A fixed NumPy workload on seeded inputs, as a yardstick of the host's speed."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300))
    K = a @ a.T / 300 + np.eye(300)
    B = rng.standard_normal((300, 100))
    v = rng.standard_normal(200_000)

    def run():
        W = solve_triangular(np.linalg.cholesky(K), B, lower=True)
        return float((W.T @ W).trace() + np.log1p(np.exp(-np.abs(v))).sum())
    return run


def _median_gap_ms(fits, every=1):
    """Median over the fits of each fit's median trace gap after the rows of every
    ``every``-th iteration, in ms."""
    gaps = [np.diff(r.trace[:, 1])[r.trace[:-1, 0] % every == 0] for r in fits]
    return 1e3 * float(np.median([np.median(g) for g in gaps]))


def _point(n, m, s, d, reps, seed=0):
    rng = np.random.default_rng([seed, n, m, s, d])
    ds = _data(n, d, rng)
    config = TrainConfig(num_inducing=m, batch_size=s, max_iters=FIT_ITERS, conv_threshold=0.0,
                         hyper_every=0, seed=seed)
    fits = [fit(ds, config) for _ in range(FITS)]
    hyper_fits = [fit(ds, replace(config, hyper_every=HYPER_EVERY)) for _ in range(FITS)]
    state = fits[0].state
    idx = rng.choice(n, s, replace=False)
    Xb, yb, scale = ds.X[idx], ds.y[idx], n / s
    gram = build_gram(Xb, state.mm)
    kmu, var = gram.marginals(state.mu, state.Sigma)
    c = local_update(kmu, var)
    ms = {
        "kmeanspp_init": _median_ms(lambda: kmeanspp_init(ds.X, m, np.random.default_rng(seed)),
                                    SETUP_REPS),
        "build_gram": _median_ms(lambda: build_gram(Xb, state.mm), reps),
        "kappa": _median_ms(lambda: gram.K_nm @ state.mm.Kmm_inv, reps),
        "marginals": _median_ms(lambda: gram.marginals(state.mu, state.Sigma), reps),
        "natural_gradient": _median_ms(lambda: natural_gradient(state, gram, yb, c, scale),
                                       reps),
        "natural_to_moments": _median_ms(lambda: natural_to_moments(state.eta1, state.eta2),
                                         reps),
        "elbo": _median_ms(lambda: elbo(state, yb, c, kmu, var, scale), reps),
        "hyper_grad": _median_ms(lambda: hyper_grad(state, gram, yb, c, scale), reps),
        "factorize": _median_ms(lambda: factorize(state.Z, state.params), reps),
    }
    return {"grid": {"n": n, "m": m, "s": s, "d": d}, "ms_per_call": ms,
            "iter_ms_p50": _median_gap_ms(fits),
            "hyper_iter_ms_p50": _median_gap_ms(hyper_fits, HYPER_EVERY)}


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy before 1.25 only prints its build config
        return "unknown"


def _machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _grid_point(text):
    try:
        n, m, s, d = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,m,s,d, got {text!r}") from None
    return n, m, s, d


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the file")
    parser.add_argument("--grid", type=_grid_point, action="append", metavar="N,M,S,D",
                        help="grid point, repeatable (default: 4000,300,100,8, "
                             "20000,100,100,8 and 8000,1000,100,8)")
    parser.add_argument("--reps", type=int, default=200, help="calls timed per piece")
    parser.add_argument("--out", default="BENCH_step.json", help="output file")
    args = parser.parse_args()

    doc = {"schema": "pggpc.bench_step.v1", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    ref = _reference_kernel()
    ref()  # untimed: the first call pays one-off set-up the readings must not hold
    points = []
    for p in args.grid or GRID:
        before = _median_ms(ref, REF_REPS)
        points.append(_point(*p, reps=args.reps))
        points[-1]["ref_ms"] = {"before": before, "after": _median_ms(ref, REF_REPS)}
    run = {"machine": _machine(), "fit_iters": FIT_ITERS, "fits": FITS,
           "hyper_every": HYPER_EVERY, "reps": args.reps,
           "setup_reps": SETUP_REPS, "ref_reps": REF_REPS, "points": points}
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for p in run["points"]:
        costs = " ".join(f"{k}={v:.3f}" for k, v in p["ms_per_call"].items())
        ref = p["ref_ms"]
        print(f"{args.label} {p['grid']}: ref_ms={ref['before']:.3f}/{ref['after']:.3f} "
              f"iter_ms_p50={p['iter_ms_p50']:.3f} "
              f"hyper_iter_ms_p50={p['hyper_iter_ms_p50']:.3f} {costs}")


if __name__ == "__main__":
    main()
