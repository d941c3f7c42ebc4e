"""The per-step cost script runs from a bare checkout and records the hyperparameter step."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts",
                      "step_costs.py")


def test_step_costs_runs_without_an_install(tmp_path):
    # No PYTHONPATH and a working directory outside the checkout: the script
    # finds the sources next to it, as bench/run.py does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "step.json"
    proc = subprocess.run([sys.executable, SCRIPT, "--label", "smoke", "--grid", "400,20,50,4",
                           "--reps", "3", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (point,) = json.loads(out.read_text())["runs"]["smoke"]["points"]
    assert point["grid"] == {"n": 400, "m": 20, "s": 50, "d": 4}
    assert {"hyper_grad", "factorize"} <= point["ms_per_call"].keys()
    assert point["hyper_iter_ms_p50"] > 0.0
