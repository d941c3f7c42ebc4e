"""Run every workload over several seeds and summarize, or record a baseline.

Usage:
    python3 bench/suite.py                        # all workloads, seeds 1-3
    python3 bench/suite.py --seeds 1-10 --trace-seeds 1 --out bench/baselines/x.json
    python3 bench/suite.py --workloads svi-bigm --seeds 1-5

Each (workload, seed) runs ``bench/run.py`` in its own fresh process, so
``peak_rss_mb`` belongs to that workload alone.  The summary gives, per
workload and metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median ("spread"), with failed/attempted counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    machine = next((json.loads(ln[len("machine "):]) for ln in lines
                    if ln.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def summarize(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma list (default: all)")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-3"), help="e.g. 1-10 or 1,4,7")
    p.add_argument("--trace-seeds", type=_seeds, default=[], help="seeds for traced runs")
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    report = {"run_seconds": seconds, "seeds": args.seeds, "trace_seeds": args.trace_seeds,
              "machine": None, "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in args.seeds:
            result, machine = run_one(wl, seed, seconds, 0)
            report["machine"] = report["machine"] or {k: v for k, v in machine.items()
                                                      if k != "grid"}
            runs.append(result)
            print(f"{wl} seed={seed} failed/attempted={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        entry = {
            "grid": machine.get("grid"),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {},
        }
        for name in runs[0]["metrics"]:
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = summary
        traced = [run_one(wl, seed, seconds, 1)[0] for seed in args.trace_seeds]
        entry["failed"] += sum(r["failed"] for r in traced)
        entry["attempted"] += sum(r["attempted"] for r in traced)
        if traced:
            for name in traced[0]["metrics"]:
                entry["per_layer"][name] = {
                    "median": statistics.median(r["metrics"][name]["value"] for r in traced),
                    "unit": traced[0]["metrics"][name]["unit"],
                }
        report["workloads"][wl] = entry

        print(f"\n{wl}  grid={entry['grid']}  failed/attempted={entry['failed']}/"
              f"{entry['attempted']}  seeds={args.seeds}")
        print(f"  {'metric':<22} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<22} {s['unit']:<9} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.3f} {bounds.get(name, float('nan')):>6}")
        for name, s in entry["per_layer"].items():
            print(f"  {name:<44} {s['median']:>14.6g} {s['unit']}")
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
