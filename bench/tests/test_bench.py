"""Tests for the benchmark's own code: tracing arithmetic, wrapper hygiene,
input generation and the metric names it prints.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

import dataclasses
import filecmp
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for _path in (os.path.join(ROOT, "src"), BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import tracer  # noqa: E402
import workloads  # noqa: E402
from pggpc import cli, inference, kernel, model  # noqa: E402
from pggpc.data import load  # noqa: E402
from pggpc.inference import TrainConfig  # noqa: E402

TINY = {
    "svi-bign": dict(n=300, n_test=100, m=20, s=50, max_iters=12),
    "svi-bigm": dict(n=300, n_test=100, n_shifted=100, m=20, s=50, max_iters=5),
    "gibbs-oracle": dict(n=40, n_test=50, m=40, s=40, sweeps=400),
}


def _tiny(name):
    """The workload at a size that runs in about a second; accuracy is not tested."""
    return dataclasses.replace(workloads.WORKLOADS[name], error_ceiling=1.0, **TINY[name])


@pytest.fixture
def run_module(monkeypatch):
    """Import bench/run.py without leaking its thread settings into this process."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    import run

    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return run


def test_self_time_of_parent_with_two_children():
    spans = [
        tracer.Span("p", 0.0, 10.0),
        tracer.Span("a", 1.0, 3.0, parent=0),
        tracer.Span("b", 4.0, 8.5, parent=0),
        tracer.Span("a.x", 1.5, 2.0, parent=1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.5, 1.5, 4.5, 0.5])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)
    assert tracer.subtree(spans, 1) == {1, 3}


def test_full_data_seconds_counts_outermost_full_row_calls_only():
    spans = [
        tracer.Span("inference.fit", 0.0, 10.0),
        tracer.Span("kernel.build_gram", 1.0, 2.0, parent=0, rows=100),  # one batch
        tracer.Span("inference.hyper_step", 3.0, 9.0, parent=0),
        tracer.Span("inference.hyper_grad", 3.0, 6.0, parent=2),
        tracer.Span("kernel.kern_grad", 4.0, 5.0, parent=3),
        tracer.Span("kernel.build_gram", 6.0, 8.0, parent=2, rows=5000),
    ]
    assert tracer.full_data_seconds(spans, 0, batch_rows=100) == pytest.approx(5.0)


def _originals():
    found = {}
    for name, (module, attr, _) in tracer.HOOKS.items():
        owner, attr_name = tracer._resolve(module, attr)
        found[name] = getattr(owner, attr_name)
    return found


def _functions(module):
    return {k: v for k, v in vars(sys.modules[module]).items() if callable(v)}


def _tiny_dataset():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((120, 2))
    y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
    return model.Dataset(X, y)


def test_wrappers_restore_originals_and_leave_results_bit_identical():
    before = _originals()
    namespaces = {m: _functions(m) for m in tracer.PGGPC_MODULES}
    data = _tiny_dataset()
    config = TrainConfig(num_inducing=15, batch_size=30, max_iters=25, conv_threshold=0.0,
                         hyper_every=5, seed=3)
    plain = inference.fit(data, config)

    t = tracer.Tracer("tiny")
    with tracer.traced(t):
        assert inference.fit is not before["inference.fit"]
        assert cli.fit is inference.fit  # the copy cli imported is patched too
        assert kernel.GramBundle.solve_mm is not before["kernel.solve_mm"]
        traced_result = inference.fit(data, config)

    assert traced_result.final_elbo == plain.final_elbo
    assert np.array_equal(traced_result.state.mu, plain.state.mu)
    assert _originals() == before
    for m, functions in namespaces.items():
        assert _functions(m) == functions, m
    metrics = tracer.layer_metrics(t)
    assert metrics["inference.fit.calls"] == 1
    assert metrics["inference.iters"] == 25
    assert metrics["inference.hyper_step.calls"] == 5
    assert metrics["inference.hyper_iter_frac"] == pytest.approx(0.2)
    assert sum(tracer.self_times(t.spans)) == pytest.approx(t.spans[0].end - t.spans[0].start)


def test_wrappers_are_restored_when_the_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer("tiny")):
            raise RuntimeError("boom")
    assert _originals() == before


def test_generator_is_deterministic_per_seed(tmp_path):
    wl = _tiny("svi-bigm")
    a = workloads.generate(wl, 7, str(tmp_path / "a"))
    b = workloads.generate(wl, 7, str(tmp_path / "b"))
    c = workloads.generate(wl, 8, str(tmp_path / "c"))
    assert sorted(a) == ["shifted", "test", "train"]
    for key in a:
        assert filecmp.cmp(a[key], b[key], shallow=False)
        assert not filecmp.cmp(a[key], c[key], shallow=False)
    train = load(a["train"], "libsvm")
    assert (train.n, train.d) == (wl.n, wl.d)
    shifted = load(a["shifted"], "libsvm")
    assert shifted.X.mean() == pytest.approx(wl.shift, abs=0.5)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_declared_workloads_exist():
    assert _declared()[2] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_printed_metric_names_are_declared(run_module, name, tmp_path):
    end_to_end, per_layer, _ = _declared()
    wl = _tiny(name)
    paths = workloads.generate(wl, 1, str(tmp_path))

    def factory(calibrate=True):
        return run_module.Runner(wl, 1, paths, str(tmp_path), calibrate)

    ops, shown, raw, ref, samples = run_module.untraced_run(factory, wl, paths, seconds=0.0)
    assert ref.factors and all(k > 0 for k in ref.factors)
    assert shown.keys() == raw.keys()
    assert samples["fit_s"] == 1 and samples["iter_ms"] == wl.max_iters - 1
    assert (ops.failed, ops.attempted > 0) == (0, True)
    assert {k: v["unit"] for k, v in shown.items()} == end_to_end
    assert all(v["value"] > 0 for v in shown.values())

    ops, metrics = run_module.traced_run(factory, wl)
    assert ops.failed == 0
    assert {k: run_module.layer_unit(k) for k in metrics} == per_layer
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.call_s"], rel=1e-9)
