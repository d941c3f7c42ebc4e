#!/usr/bin/env python3
"""Cost of ``fit`` against the number of training rows, written to BENCH_scaling.json.

The run goes over the (n, m) grid ``--rounds`` times, so a slow stretch
of the host falls on every point alike.  Each visit to a point is a fresh
process, so its peak RSS is its own: it draws n rows with d=8 in-process
on the boundary of ``scripts/step_costs.py`` (the benchmark's workloads
use the same one), fits them once with s=100, ``--iters`` iterations,
``conv_threshold=0`` and the ``TrainConfig`` defaults otherwise (so an
Adam step every 10 iterations), and reads the fit's ``final_elbo`` once.
A point records:

- ``iter_ms``: p50 and p95 of the gaps between consecutive trace rows,
  pooled over the rounds;
- ``setup_s``: the first trace row's wall time (set-up and the first
  iteration, whose mini-batch draw permutes the n rows) less the p50 gap;
- ``fit_s``: the wall time of the ``fit`` call;
- ``final_elbo_read_s``: the wall time of the first read of ``final_elbo``;
- ``fit_minus_setup_s``: ``fit_s`` less ``setup_s``, which a ``fit`` flat
  in n keeps flat;
- ``peak_rss_mib``, the largest of its processes', and ``x_mib``, the
  size of X;
- ``ref_ms``: the median ms of step_costs.py's reference kernel just
  before and just after the fit, as a yardstick of the host's speed.

Seconds and ``ref_ms`` are medians over the rounds.  The run is stored under
``runs[<label>]`` of the output file; runs under other labels are kept, so
one file holds a before and an after run of the same grid.  With no thread
count in the environment, the BLAS is pinned to one thread before NumPy
loads, as the benchmark runs.

Usage:
    python3 scripts/scaling.py --label after
    python3 scripts/scaling.py --label smoke --grid 2000,20 --iters 20 --rounds 1 --out /tmp/s.json
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

# step_costs puts the checkout's sources on the path and pins the BLAS threads
# before NumPy loads, so it is imported first.
from step_costs import REF_REPS, _data, _machine, _median_ms, _reference_kernel

import numpy as np  # noqa: E402

from pggpc.inference import TrainConfig, fit  # noqa: E402

D = 8
BATCH = 100
GRID = ((20_000, 100), (200_000, 100), (2_000_000, 100),
        (20_000, 300), (200_000, 300), (2_000_000, 300))
SKIPPED = [{"n": 10_000_000, "reason": (
    "not run: X alone is 610 MiB and a point's peak RSS would be about 1.5 GiB, "
    "on a 7 GiB host whose memory other jobs share; --grid 10000000,100 adds it")}]


def _visit(n, m, iters, seed=0):
    """One fit at a grid point and the first read of its ``final_elbo``, in raw
    readings; run in a process of its own."""
    ref = _reference_kernel()
    ref()  # untimed: the first call pays one-off set-up
    ref_before = _median_ms(ref, REF_REPS)
    ds = _data(n, D, np.random.default_rng([seed, n, m, D]))
    config = TrainConfig(num_inducing=m, batch_size=BATCH, max_iters=iters, conv_threshold=0.0,
                         seed=seed)
    t0 = time.perf_counter()
    res = fit(ds, config)
    t1 = time.perf_counter()
    res.final_elbo  # the first read pays the all-rows bound
    t2 = time.perf_counter()
    return {"fit_s": t1 - t0, "read_s": t2 - t1, "first_row_s": res.trace[0, 1],
            "gaps_s": np.diff(res.trace[:, 1]).tolist(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "x_mib": ds.X.nbytes / 2**20,
            "ref_ms": [ref_before, _median_ms(ref, REF_REPS)]}


def _point(n, m, visits):
    """A grid point's record from its visits' readings."""
    def med(values):
        return float(np.median(values))

    gaps = [np.asarray(v["gaps_s"]) for v in visits]
    setup_s = med([v["first_row_s"] - np.median(g) for v, g in zip(visits, gaps)])
    fit_s = med([v["fit_s"] for v in visits])
    gaps = 1e3 * np.concatenate(gaps)
    return {
        "grid": {"n": n, "m": m, "s": BATCH, "d": D},
        "iter_ms": {"p50": float(np.percentile(gaps, 50)), "p95": float(np.percentile(gaps, 95))},
        "setup_s": setup_s,
        "fit_s": fit_s,
        "fit_minus_setup_s": fit_s - setup_s,
        "final_elbo_read_s": med([v["read_s"] for v in visits]),
        "peak_rss_mib": max(v["peak_rss_mib"] for v in visits),
        "x_mib": visits[0]["x_mib"],
        "ref_ms": {"before": med([v["ref_ms"][0] for v in visits]),
                   "after": med([v["ref_ms"][1] for v in visits])},
    }


def _grid_point(text):
    try:
        n, m = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,m, got {text!r}") from None
    return n, m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="key of this run in the file")
    parser.add_argument("--grid", type=_grid_point, action="append", metavar="N,M",
                        help="grid point, repeatable (default: n in 2e4, 2e5, 2e6 "
                             "at m in 100, 300)")
    parser.add_argument("--iters", type=int, default=200, help="iterations per fit")
    parser.add_argument("--rounds", type=int, default=5,
                        help="passes over the grid, one fit per point each")
    parser.add_argument("--out", default="BENCH_scaling.json", help="output file")
    parser.add_argument("--point", type=_grid_point, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.point:  # the process of one visit to a grid point
        print(json.dumps(_visit(*args.point, args.iters)))
        return
    if not args.label:
        parser.error("--label is required")
    doc = {"schema": "pggpc.bench_scaling.v1", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    grid = args.grid or GRID
    visits = {point: [] for point in grid}
    for _ in range(args.rounds):
        for n, m in grid:
            done = subprocess.run([sys.executable, os.path.abspath(__file__), "--point",
                                   f"{n},{m}", "--iters", str(args.iters)],
                                  capture_output=True, text=True, check=True)
            visits[n, m].append(json.loads(done.stdout.strip().splitlines()[-1]))
    points = [_point(n, m, visits[n, m]) for n, m in grid]
    for p in points:
        print(f"{args.label} {p['grid']}: iter_ms p50={p['iter_ms']['p50']:.3f} "
              f"p95={p['iter_ms']['p95']:.3f} setup_s={p['setup_s']:.3f} "
              f"fit_s={p['fit_s']:.3f} final_elbo_read_s={p['final_elbo_read_s']:.3f} "
              f"peak_rss_mib={p['peak_rss_mib']:.0f} x_mib={p['x_mib']:.0f} "
              f"ref_ms={p['ref_ms']['before']:.3f}/{p['ref_ms']['after']:.3f}", flush=True)
    doc["runs"][args.label] = {
        "machine": _machine(), "iters": args.iters, "rounds": args.rounds,
        "hyper_every": TrainConfig.hyper_every, "ref_reps": REF_REPS,
        "skipped": [] if args.grid else SKIPPED, "points": points,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
