"""Run one benchmark workload against the pggpc sources in this checkout.

Usage:
    python3 bench/run.py --workload svi-bign --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from ``--seed`` into files under
``bench/.work/`` (removed again on exit) and handed to pggpc only as files.
One caller drives the program in a closed loop: each timed call waits for
the previous one.  The run repeats its cycle of calls while another cycle
still fits in ``--seconds`` (at least once) and reports medians.

The JSON result gives timings in reference seconds (see :class:`Reference`);
the readable block before it shows them in raw seconds too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced cycle and prints the per-layer metrics.  The last
line of standard output is always the JSON result.  Without pggpc sources
under ``src/`` the run exits with code 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: at the default thread count a 2-vCPU machine measures the
# scheduler (a plain SVI step at n=20000, m=100 took 31.6 ms against 6.5 ms).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
from tracer import (  # noqa: E402
    Tracer, full_data_seconds, layer_metrics, self_times, subtree, traced,
)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Set-ups per run, each in a fresh process; setup_s is their median.
SETUP_PROBES = 7
# Held-out scoring is repeated within a cycle until it has run this long.
SCORE_MIN_S = 0.5
# Reference kernel: repetitions per timing, and the seconds its median
# timing over a run is scaled to.
REF_REPS = 4
REF_NOMINAL_S = 0.1
# Held-out rows whose class probabilities are checked after each fit.
CHECK_ROWS = 1000

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "iter_ms.p50": "ms",
    "iter_ms.p95": "ms",
    "predict_pts_per_s": "points/s",
    "test_nll": "nats",
    "check_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Ops:
    """Failure accounting: every timed call is one operation.

    A call fails when it raises or its check returns a complaint.  Checks
    run after the cycle, outside the timed region and outside tracing.
    """

    attempted: int = 0
    failed: int = 0
    pending: list = field(default_factory=list)

    def run(self, label, fn, check):
        self.attempted += 1
        t = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        seconds = time.perf_counter() - t
        self.pending.append((label, check, out))
        return seconds, out

    def settle(self):
        for label, check, out in self.pending:
            try:
                problem = check(out)
            except Exception as exc:  # a check that cannot run is a failed check
                problem = f"check raised {exc!r}"
            if problem:
                self.failed += 1
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        self.pending.clear()


class Reference:
    """A fixed NumPy kernel that tracks the host's current speed.

    On a shared host the single-thread speed drifts by 20-40% for stretches
    of seconds up to minutes, in CPU time as much as in wall time, because
    other tenants share the cores.  The run times this kernel between its
    timed calls, never inside one, and reports each call in reference
    seconds: raw seconds x ``REF_NOMINAL_S`` / (mean of the kernel timings
    just before and just after the call); throughputs are divided by the
    same factor.  A change to pggpc moves its calls and not the kernel, so
    it shows in full; a slow stretch of the host moves both and cancels.
    The kernel mixes what pggpc spends its time in: a Cholesky factor and
    solve, a 3-operand einsum, elementwise exp/log and small Python-level
    NumPy calls.

    With ``enabled=False`` the kernel never runs and every factor is 1, so
    timings stay in raw seconds (the traced run uses this).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        rng = np.random.default_rng(0)
        # Two sizes: matrices that stay in the core's own caches, and
        # matrices plus a 3 MB stream that reach the shared cache and memory,
        # where other tenants slow pggpc's larger steps the most.
        self._mats = []
        for size in (200, 300):
            a = rng.standard_normal((size, size))
            self._mats.append((a @ a.T / size + np.eye(size), rng.standard_normal((100, size))))
        self._v = rng.standard_normal(20000)
        self._stream = rng.standard_normal(400_000)
        self._out = np.empty_like(self._stream)
        self.times = []  # seconds per kernel timing, in run order
        self.factors = []  # one per bracket
        if enabled:
            self._time()  # warm-up, not kept
            self.times.append(self._time())

    def _once(self):
        total = 0.0
        for K, B in self._mats:
            W = np.linalg.solve(np.linalg.cholesky(K), B.T)
            total += np.einsum("ij,jk,ik->i", B, K, B).sum()
            total += sum(float(W[:, i] @ W[:, i]) for i in range(20))
        total += np.log1p(np.exp(-np.abs(self._v))).sum()
        np.exp(-np.abs(self._stream), out=self._out)
        return total + np.log1p(self._out, out=self._out).sum()

    def _time(self):
        t = time.perf_counter()
        for _ in range(REF_REPS):
            self._once()
        return time.perf_counter() - t

    def bracket(self):
        """Reference seconds per raw second for what ran since the last timing.

        Times the kernel again, which also opens the next bracket.
        """
        if not self.enabled:
            return 1.0
        before = self.times[-1]
        self.times.append(self._time())
        k = REF_NOMINAL_S / (0.5 * (before + self.times[-1]))
        self.factors.append(k)
        return k


@dataclass
class Record:
    """A run's timed calls as (raw seconds, reference factor) pairs."""

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    iter_ms: list = field(default_factory=list)  # (diffs of one fit's trace in ms, its factor)
    score_seconds: list = field(default_factory=list)  # one entry per scoring of the held-out sets
    check_s: list = field(default_factory=list)
    test_nll: list = field(default_factory=list)  # plain values


def _finite(x):
    return bool(np.all(np.isfinite(x)))


def _check_probs(p):
    p = np.asarray(p)
    if not (_finite(p) and np.all(p > 0.0) and np.all(p < 1.0)):
        return "a probability lies outside (0, 1)"
    return None


class Runner:
    """One workload's inputs, settings and cycle of timed calls."""

    def __init__(self, wl, seed, paths, workdir, calibrate=True):
        from pggpc import data

        self.wl, self.seed, self.paths, self.workdir = wl, seed, paths, workdir
        self.ref = Reference(enabled=calibrate)
        train, scaler = data.standardize(data.load(paths["train"], wl.fmt))
        self.train = train
        self.test = scaler.apply_dataset(data.load(paths["test"], wl.fmt))
        self.shifted = None
        if "shifted" in paths:
            self.shifted = scaler.apply_dataset(data.load(paths["shifted"], wl.fmt))
        self.n_scored = self.test.n + (self.shifted.n if self.shifted is not None else 0)

    # -- checks ---------------------------------------------------------
    def check_fit(self, res):
        if not np.isfinite(res.final_elbo):
            return f"final_elbo is {res.final_elbo}"
        if not _finite(res.trace):
            return "trace holds a non-finite value"
        from pggpc.prediction import class_prob, latent_predict

        sample = self.test.X[:CHECK_ROWS]
        return _check_probs(class_prob(*latent_predict(res.state, sample)))

    def check_score(self, out):
        report, p_shifted = out
        if not np.isfinite(report.mean_nll):
            return f"mean_nll is {report.mean_nll}"
        if report.error_rate > self.wl.error_ceiling:
            return f"test error {report.error_rate} above ceiling {self.wl.error_ceiling}"
        return None if p_shifted is None else _check_probs(p_shifted)

    # -- timed calls ----------------------------------------------------
    def _score(self, state):
        from pggpc import prediction

        report = prediction.evaluate(state, self.test)
        p_shifted = None
        if self.shifted is not None:
            p_shifted = prediction.class_prob(*prediction.latent_predict(state, self.shifted.X))
        return report, p_shifted

    def _score_repeated(self, ops, rec, state, min_seconds):
        """Score the held-out sets until ``min_seconds`` have passed.

        The block is bracketed as a whole.  Returns the first scoring's
        (raw seconds, factor).
        """
        raw = []
        while not raw or sum(raw) < min_seconds:
            r = ops.run("score", lambda: self._score(state), self.check_score)
            if r is None:
                return None
            seconds, (report, _) = r
            raw.append(seconds)
            rec.test_nll.append(report.mean_nll)
        k = self.ref.bracket()
        rec.score_seconds.extend((t, k) for t in raw)
        return raw[0], k

    def _record_fit(self, rec, seconds, res, k):
        rec.fit_s.append((seconds, k))
        rec.iter_ms.append((np.diff(res.trace[:, 1]) * 1e3, k))

    def svi_cycle(self, ops, rec, score_min_s):
        from pggpc import inference
        from pggpc.kernel import KernelParams

        wl = self.wl
        init = None
        if wl.amplitude is not None:
            d = self.train.d
            init = KernelParams(0.5 * float(np.log(d)), float(np.log(wl.amplitude)),
                                float(np.log(1e-6)))
        config = inference.TrainConfig(
            num_inducing=wl.m, batch_size=wl.s, max_iters=wl.max_iters, conv_threshold=0.0,
            hyper_every=wl.hyper_every, init_params=init, seed=self.seed,
        )
        r = ops.run("fit", lambda: inference.fit(self.train, config), self.check_fit)
        k = self.ref.bracket()
        if r is None:
            return False
        seconds, res = r
        self._record_fit(rec, seconds, res, k)
        score = self._score_repeated(ops, rec, res.state, score_min_s)
        if score is None:
            return False
        # The fit plus the first scoring, with their time-weighted factor.
        raw = seconds + score[0]
        rec.check_s.append((raw, (seconds * k + score[0] * score[1]) / raw))
        return True

    def gibbs_cycle(self, ops, rec, score_min_s):
        import pggpc.cli as cli

        wl = self.wl
        argv = [
            "gibbs-check", "--data", self.paths["train"], "--seed", str(self.seed),
            "--sweeps", str(wl.sweeps), "--burn-in", str(wl.sweeps // 5), "--thin", "2",
            "--max-iters", str(wl.max_iters),
            "--out-dir", os.path.join(self.workdir, "gibbs-check"),
        ]
        fits = []
        inner_fit = cli.fit

        def timed_fit(*args, **kwargs):
            t = time.perf_counter()
            res = inner_fit(*args, **kwargs)
            fits.append((time.perf_counter() - t, res))
            return res

        cli.fit = timed_fit
        try:
            with contextlib.redirect_stdout(sys.stderr):
                r = ops.run("gibbs-check", lambda: cli.main(argv),
                            lambda code: None if code == 0 else f"exit code {code}")
        finally:
            cli.fit = inner_fit
        k = self.ref.bracket()  # the fit inside the check shares its bracket
        if r is None or len(fits) != 1:
            return False
        fit_s, res = fits[0]
        rec.check_s.append((r[0], k))
        ops.pending.append(("gibbs-check fit", self.check_fit, res))
        self._record_fit(rec, fit_s, res, k)
        return self._score_repeated(ops, rec, res.state, score_min_s) is not None

    def cycle(self, ops, rec, score_min_s=SCORE_MIN_S):
        if self.wl.sweeps:
            return self.gibbs_cycle(ops, rec, score_min_s)
        return self.svi_cycle(ops, rec, score_min_s)


def setup_probes(ops, ref, rec, wl, paths, count):
    """Set up ``count`` times, each in a fresh process and its own bracket."""
    probe = os.path.join(BENCH, "probe.py")
    files = [paths["train"]] + [paths[k] for k in ("test", "shifted") if k in paths]
    for _ in range(count):
        def once():
            done = subprocess.run([sys.executable, probe, SRC, wl.fmt, *files],
                                  capture_output=True, text=True, timeout=120, check=True)
            return json.loads(done.stdout.strip().splitlines()[-1])
        r = ops.run("setup", once, lambda out: None if out["setup_s"] > 0 else "no set-up time")
        k = ref.bracket()
        if r is not None:
            rec.setup_s.append((r[1]["setup_s"], k))


def end_to_end(rec, n_scored, scaled=True):
    """End-to-end metrics of a run, in reference seconds or (``scaled=False``) raw."""

    def values(pairs):
        return [t * k if scaled else t for t, k in pairs]

    def median(pairs):
        return statistics.median(values(pairs)) if pairs else None

    iter_ms = np.concatenate(values(rec.iter_ms)) if rec.iter_ms else None
    m = {
        "setup_s": median(rec.setup_s),
        "fit_s": median(rec.fit_s),
        "iter_ms.p50": float(np.percentile(iter_ms, 50)) if iter_ms is not None else None,
        "iter_ms.p95": float(np.percentile(iter_ms, 95)) if iter_ms is not None else None,
        # Points over seconds summed across the run's scorings.
        "predict_pts_per_s": (n_scored * len(rec.score_seconds) / sum(values(rec.score_seconds))
                              if rec.score_seconds else None),
        "test_nll": statistics.median(rec.test_nll) if rec.test_nll else None,
        "check_s": median(rec.check_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]}
            for name, v in m.items() if v is not None}


def traced_run(runner_factory, wl):
    """Traced set-up and one untraced plus one traced cycle; per-layer metrics."""
    ops = Ops()
    tracer = Tracer(wl.name)
    with traced(tracer):
        runner = runner_factory(calibrate=False)
    plain, rec = Record(), Record()
    ok = runner.cycle(ops, plain, score_min_s=0.0)
    with traced(tracer):
        ok = runner.cycle(ops, rec, score_min_s=0.0) and ok
    ops.settle()
    metrics = layer_metrics(tracer)
    if ok:
        spans = tracer.spans
        root = tracer.last("cli.main" if wl.sweeps else "inference.fit")
        selfs = self_times(spans)
        metrics["trace.call_s"] = spans[root].end - spans[root].start
        metrics["trace.self_sum_s"] = sum(selfs[i] for i in subtree(spans, root))
        untraced_s = (plain.check_s if wl.sweeps else plain.fit_s)[0][0]
        metrics["trace.overhead_s"] = metrics["trace.call_s"] - untraced_s
        fit = tracer.last("inference.fit")
        metrics["inference.full_data_frac"] = (
            full_data_seconds(spans, fit, wl.s) / (spans[fit].end - spans[fit].start))
    return ops, metrics


def untraced_run(runner_factory, wl, paths, seconds):
    """Set-up probes, then cycles while the next one still fits in ``seconds``.

    Returns the operations, the end-to-end metrics in reference seconds,
    the same metrics in raw seconds, the reference and the sample counts.
    """
    ops = Ops()
    t0 = time.perf_counter()
    runner = runner_factory()
    rec = Record()
    setup_probes(ops, runner.ref, rec, wl, paths, SETUP_PROBES)
    while True:
        t = time.perf_counter()
        ok = runner.cycle(ops, rec)
        ops.settle()
        now = time.perf_counter()
        if not ok or now + (now - t) - t0 > seconds:
            break
    samples = {"setup_s": len(rec.setup_s), "fit_s": len(rec.fit_s),
               "iter_ms": sum(len(d) for d, _ in rec.iter_ms),
               "scorings": len(rec.score_seconds), "check_s": len(rec.check_s)}
    return (ops, end_to_end(rec, runner.n_scored), end_to_end(rec, runner.n_scored, False),
            runner.ref, samples)


def provenance(wl):
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout differs across NumPy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "grid": wl.grid,
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "pggpc", "__init__.py")):
        print(f"error: no pggpc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pggpc

    if not os.path.abspath(pggpc.__file__).startswith(SRC + os.sep):
        print(f"error: imported pggpc from {pggpc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH, ".work", f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        paths = generate(wl, args.seed, workdir)

        def factory(calibrate=True):
            return Runner(wl, args.seed, paths, workdir, calibrate)

        ref = raw = samples = None
        if args.trace:
            ops, metrics = traced_run(factory, wl)
            shown = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        else:
            ops, shown, raw, ref, samples = untraced_run(factory, wl, paths, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            os.rmdir(os.path.dirname(workdir))

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"wall_s={time.perf_counter() - T_START:.1f}")
    print("machine " + json.dumps(provenance(wl), sort_keys=True))
    print(f"failed/attempted {ops.failed}/{ops.attempted}")
    if samples:
        print("samples " + " ".join(f"{k}={v}" for k, v in samples.items()))
    if ref is not None and ref.factors:
        f = ref.factors
        print(f"reference kernel: {len(ref.times)} timings, median "
              f"{statistics.median(ref.times):.4f} s; reference s per raw s: median "
              f"{statistics.median(f):.4f}, range {min(f):.4f}-{max(f):.4f} "
              f"over {len(f)} brackets")
        print(f"  {'metric':<44} {'reference':>14} {'raw':>14} unit")
        for name, m in shown.items():
            print(f"  {name:<44} {_fmt(m['value']):>14} {_fmt(raw[name]['value']):>14} "
                  f"{m['unit']}")
    else:
        for name, m in shown.items():
            print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": shown,
    }
    print(json.dumps(result))
    return 0


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
