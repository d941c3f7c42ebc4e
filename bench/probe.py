"""One set-up of a workload in a fresh process; prints its seconds as JSON.

Usage: python3 bench/probe.py <src dir> <format> <train file> [<other file> ...]

The clock starts before NumPy is imported and stops once ``pggpc`` is
imported, every input file is loaded through ``pggpc.data.load`` and the
training set is standardized (the other sets get the same transform).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv):
    src, fmt, train_path, *others = argv
    sys.path.insert(0, src)
    from pggpc.data import load, standardize

    train, scaler = standardize(load(train_path, fmt))
    sets = [scaler.apply_dataset(load(p, fmt)) for p in others]
    seconds = time.perf_counter() - T0
    print(json.dumps({"setup_s": seconds, "rows": train.n + sum(s.n for s in sets)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
