"""Pin the BLAS to one thread before NumPy loads, as CI and the benchmark do.

The test matrices are small, and extra threads only contend for the cores.
A thread count already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
