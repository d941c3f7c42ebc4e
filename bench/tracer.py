"""Outside-in tracing of pggpc's public functions.

The wrappers live in the benchmark, not in the library: :func:`traced`
replaces each hooked function with a timing wrapper in every ``pggpc``
module namespace that holds it (``from .x import f`` binds a second name),
and puts the originals back on exit.  Spans stay in memory; the caller
turns them into per-layer metrics with :func:`layer_metrics` once the run
is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# class_prob integrates a Gaussian with a single Gauss-Hermite rule up to this
# variance and with the wide comb decomposition above it.
WIDE_VAR = 1.0625

PGGPC_MODULES = (
    "pggpc", "pggpc.data", "pggpc.model", "pggpc.kernel", "pggpc.inference",
    "pggpc.prediction", "pggpc.pg", "pggpc.gibbs", "pggpc.cli",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Extra counts per call: f(args, kwargs, result) -> {count name: increment}.
# A "rows" count is also kept on the span, to tell full-data calls apart.
def _gram_rows(args, kwargs, out):
    return {"rows": out.K_nm.shape[0]}


def _result_rows(args, kwargs, out):
    return {"rows": np.size(out)}


def _predict_rows(args, kwargs, out):
    return {"rows": np.size(out[0])}


def _escalations(args, kwargs, out):
    return {"escalations": int(out[1] > 0)}


def _iters(args, kwargs, out):
    return {"iters": out.n_iters}


def _reverts(args, kwargs, out):
    return {"reverts": int(out[0] == _arg(args, kwargs, 0, "state").params)}


def _wide(args, kwargs, out):
    var = np.asarray(_arg(args, kwargs, 1, "var_star"), dtype=float)
    var = np.broadcast_to(var, np.shape(out))
    return {"inputs": var.size, "wide": int(np.count_nonzero(var > WIDE_VAR))}


def _draws(args, kwargs, out):
    return {"draws": np.size(out)}


# metric prefix -> (module, attribute or Class.attribute, extra counter)
HOOKS = {
    "data.load": ("pggpc.data", "load", None),
    "data.standardize": ("pggpc.data", "standardize", None),
    "model.init_state": ("pggpc.model", "init_state", None),
    "model.kmeanspp_init": ("pggpc.model", "kmeanspp_init", None),
    "model.natural_to_moments": ("pggpc.model", "natural_to_moments", None),
    "kernel.build_gram": ("pggpc.kernel", "build_gram", _gram_rows),
    "kernel.kern_grad": ("pggpc.kernel", "kern_grad", None),
    "kernel.chol_with_escalation": ("pggpc.kernel", "chol_with_escalation", _escalations),
    "kernel.solve_mm": ("pggpc.kernel", "GramBundle.solve_mm", None),
    "inference.local_update": ("pggpc.inference", "local_update", _result_rows),
    "inference.fit": ("pggpc.inference", "fit", _iters),
    "inference.hyper_step": ("pggpc.inference", "hyper_step", _reverts),
    "inference.hyper_grad": ("pggpc.inference", "hyper_grad", None),
    "inference.natural_gradient": ("pggpc.inference", "natural_gradient", None),
    "inference.global_step": ("pggpc.inference", "global_step", None),
    "inference.elbo": ("pggpc.inference", "elbo", None),
    "prediction.latent_predict": ("pggpc.prediction", "latent_predict", _predict_rows),
    "prediction.class_prob": ("pggpc.prediction", "class_prob", _wide),
    "prediction.evaluate": ("pggpc.prediction", "evaluate", None),
    "pg.pg_sample": ("pggpc.pg", "pg_sample", _draws),
    "gibbs.gibbs_run": ("pggpc.gibbs", "gibbs_run", None),
    "gibbs.f_conditional": ("pggpc.gibbs", "f_conditional", None),
    "gibbs.compare_to_vi": ("pggpc.gibbs", "compare_to_vi", None),
    "cli.main": ("pggpc.cli", "main", None),
}

# Self time of these spans, and of everything nested in them, is work over
# every training row rather than over one mini-batch.
FULL_DATA_ALWAYS = {"inference.hyper_grad", "kernel.kern_grad"}
FULL_DATA_BY_ROWS = {"kernel.build_gram", "inference.local_update"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    workload: str = ""
    rows: int = 0


@dataclass
class Tracer:
    """In-memory span recorder for one single-threaded workload process."""

    workload: str
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = Span(name, time.perf_counter(), parent=parent, workload=self.workload)
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.counts[f"{name}.{key}"] += int(value)
                    if key == "rows":
                        span.rows = int(value)
            return out

        return wrapper

    def last(self, name):
        """Index of the most recent span with this name."""
        return max(i for i, sp in enumerate(self.spans) if sp.name == name)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children never overlap and the
    covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - child[i] for i, sp in enumerate(spans)]


def subtree(spans, root):
    """Indices of ``root`` and every span nested inside it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return inside


def full_data_seconds(spans, root, batch_rows):
    """Time inside ``root`` spent in calls that touch every training row."""
    total = 0.0
    covered = set()
    for i in sorted(subtree(spans, root)):
        sp = spans[i]
        if sp.parent in covered:
            covered.add(i)
            continue
        if sp.name in FULL_DATA_ALWAYS or (sp.name in FULL_DATA_BY_ROWS and sp.rows > batch_rows):
            covered.add(i)
            total += sp.end - sp.start
    return total


def layer_metrics(tracer):
    """Per-layer calls, self seconds and extra counts for every hook.

    Every hook is reported, with zeros where the workload never calls it.
    """
    spans = tracer.spans
    out = {}
    for name in HOOKS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for sp, st in zip(spans, self_times(spans)):
        out[f"{sp.name}.calls"] += 1
        out[f"{sp.name}.self_s"] += st
    c = tracer.counts
    for key in ("kernel.build_gram.rows", "kernel.chol_with_escalation.escalations",
                "inference.local_update.rows", "inference.hyper_step.reverts",
                "prediction.latent_predict.rows", "pg.pg_sample.draws"):
        out[key] = c.get(key, 0)
    iters = c.get("inference.fit.iters", 0)
    out["inference.iters"] = iters
    out["inference.hyper_iter_frac"] = out["inference.hyper_step.calls"] / iters if iters else 0.0
    inputs = c.get("prediction.class_prob.inputs", 0)
    out["prediction.class_prob.wide_frac"] = (
        c.get("prediction.class_prob.wide", 0) / inputs if inputs else 0.0)
    pg_s = sum(sp.end - sp.start for sp in spans if sp.name == "pg.pg_sample")
    out["pg.draws_per_s"] = out["pg.pg_sample.draws"] / pg_s if pg_s else 0.0
    gibbs_s = sum(sp.end - sp.start for sp in spans if sp.name == "gibbs.gibbs_run")
    # gibbs_run calls f_conditional exactly once per sweep.
    out["gibbs.sweeps_per_s"] = out["gibbs.f_conditional.calls"] / gibbs_s if gibbs_s else 0.0
    return out


def _resolve(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


@contextlib.contextmanager
def traced(tracer, hooks=HOOKS):
    """Install the tracer's wrappers for the block; always restore the originals."""
    patched = []
    try:
        modules = [importlib.import_module(m) for m in PGGPC_MODULES]
        for name, (module, attr, counter) in hooks.items():
            owner, attr_name = _resolve(module, attr)
            orig = getattr(owner, attr_name)
            wrapper = tracer.wrap(name, orig, counter)
            targets = [owner] if isinstance(owner, type) else modules
            for ns in targets:
                if getattr(ns, attr_name, None) is orig:
                    patched.append((ns, attr_name, orig))
                    setattr(ns, attr_name, wrapper)
        yield tracer
    finally:
        for ns, attr_name, orig in reversed(patched):
            setattr(ns, attr_name, orig)
