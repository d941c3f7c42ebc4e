"""The scaling script runs from a bare checkout and records one grid point."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts",
                      "scaling.py")


def test_scaling_runs_without_an_install(tmp_path):
    # No PYTHONPATH and a working directory outside the checkout: the script
    # finds the sources next to it, in the grid point's process too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "scaling.json"
    proc = subprocess.run([sys.executable, SCRIPT, "--label", "smoke", "--grid", "2000,20",
                           "--iters", "12", "--rounds", "2", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(out.read_text())["runs"]["smoke"]
    (point,) = run["points"]
    assert point["grid"] == {"n": 2000, "m": 20, "s": 100, "d": 8}
    assert run["machine"]["blas_threads"]["OPENBLAS_NUM_THREADS"]
    for key in ("setup_s", "fit_s", "final_elbo_read_s", "peak_rss_mib"):
        assert point[key] > 0.0, key
    assert 0.0 < point["iter_ms"]["p50"] <= point["iter_ms"]["p95"]
