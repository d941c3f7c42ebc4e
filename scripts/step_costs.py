#!/usr/bin/env python3
"""Per-call cost of each piece of an SVI step, written to BENCH_step.json.

For each (n, m, s, d) grid point the script draws n synthetic labeled rows
in-process (standard normal inputs, a smooth nonlinear boundary, 5% of the
labels flipped), fits them with fixed kernel hyperparameters
(``hyper_every=0``, ``conv_threshold=0``), and on the fitted state and one
mini-batch of s rows times each piece of an iteration: the batch
``build_gram`` (sharing the state's K_mm factorization), kappa,
``GramBundle.marginals``, ``natural_gradient``, ``natural_to_moments`` and
``elbo``.  Each is the median of ``--reps`` calls, in ms.  ``iter_ms_p50``
is the median gap between consecutive rows of the fit's trace.

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
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pggpc.data import MiniBatch  # noqa: E402
from pggpc.inference import TrainConfig, elbo, fit, local_update, natural_gradient  # noqa: E402
from pggpc.kernel import GramBundle, build_gram  # noqa: E402
from pggpc.model import Dataset, natural_to_moments  # noqa: E402

GRID = ((4000, 300, 100, 8), (20000, 100, 100, 8))
FIT_ITERS = 60


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


def _point(n, m, s, d, reps, seed=0):
    rng = np.random.default_rng([seed, n, m, s, d])
    ds = _data(n, d, rng)
    res = fit(ds, TrainConfig(num_inducing=m, batch_size=s, max_iters=FIT_ITERS,
                              conv_threshold=0.0, hyper_every=0, seed=seed))
    state = res.state
    batch = MiniBatch(indices=rng.choice(n, s, replace=False), scale=n / s)
    Xb, yb = ds.X[batch.indices], ds.y[batch.indices]
    gram = build_gram(Xb, state.Z, state.params, mm=state.mm)
    c = local_update(state, gram)
    kmu, var = gram.marginals(state.mu, state.Sigma)
    ms = {
        "build_gram": _median_ms(lambda: build_gram(Xb, state.Z, state.params, mm=state.mm),
                                 reps),
        "kappa": _median_ms(lambda: GramBundle.kappa.func(gram), reps),
        "marginals": _median_ms(lambda: gram.marginals(state.mu, state.Sigma), reps),
        "natural_gradient": _median_ms(lambda: natural_gradient(state, ds, batch, gram, c),
                                       reps),
        "natural_to_moments": _median_ms(lambda: natural_to_moments(state.eta1, state.eta2),
                                         reps),
        "elbo": _median_ms(lambda: elbo(state, yb, c, kmu, var, batch.scale), reps),
    }
    iter_ms = 1e3 * float(np.median(np.diff(res.trace[:, 1])))
    return {"grid": {"n": n, "m": m, "s": s, "d": d}, "ms_per_call": ms, "iter_ms_p50": iter_ms}


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
                        help="grid point, repeatable (default: 4000,300,100,8 and "
                             "20000,100,100,8)")
    parser.add_argument("--reps", type=int, default=200, help="calls timed per piece")
    parser.add_argument("--out", default="BENCH_step.json", help="output file")
    args = parser.parse_args()

    doc = {"schema": "pggpc.bench_step.v1", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    run = {"machine": _machine(), "fit_iters": FIT_ITERS, "reps": args.reps,
           "points": [_point(*p, reps=args.reps) for p in (args.grid or GRID)]}
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for p in run["points"]:
        costs = " ".join(f"{k}={v:.3f}" for k, v in p["ms_per_call"].items())
        print(f"{args.label} {p['grid']}: iter_ms_p50={p['iter_ms_p50']:.3f} {costs}")


if __name__ == "__main__":
    main()
