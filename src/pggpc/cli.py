"""Command-line entry point for reproducible experiments.

Subcommands
-----------
train        fit a model, write checkpoint.json and trace.csv
predict      score new inputs from a checkpoint, write predictions.csv
evaluate     error/NLL of a checkpoint on labeled data, write metrics.csv
cv           k-fold cross-validated benchmarking, folds in sequence, write cv.csv
gibbs-check  full-GP VI vs exact Gibbs agreement, write gibbs_vi.csv
sweep-m      CV error/time across a grid of inducing-point counts, each
             grid point run by the same fold loop as cv, write sweep.csv

Training options default to the fields of ``pggpc.inference.TrainConfig``,
the paper's benchmarking protocol.  An optional ``--config`` file of
``key=value`` lines overrides the defaults, and explicit flags override the
file.  Every command is deterministic in single-threaded mode (the ones
that draw at random under a fixed ``--seed``; ``predict`` and ``evaluate``
draw nothing and take no ``--seed``), and every CSV starts with a
schema-version comment.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import Standardizer, canonical_order, kfold, load, load_features, standardize
from .gibbs import GIBBS_BURN_IN, GIBBS_SWEEPS, GIBBS_THIN, compare_to_vi, gibbs_run
from .inference import CONV_MODES, CONV_WINDOW, HELDOUT_THRESHOLD, TrainConfig, fit
from .kernel import DEFAULT_TEXT, FactorizationError, KernelParams
from .model import Dataset, load_checkpoint, save_checkpoint
from .prediction import class_prob, evaluate, latent_predict

_BOOL_OPTS = {"standardize", "canonical-sort", "trace-train-error", "unlabeled"}


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, schema, header, rows):
    with open(path, "w") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_lr(text):
    """``TrainConfig.fixed_lr`` from ``adaptive`` (None) or ``fixed:<v>`` (v in (0, 1])."""
    if text == "adaptive":
        return None
    mode, sep, value = text.partition(":")
    if mode != "fixed" or not sep:
        raise argparse.ArgumentTypeError(
            f"invalid --lr {text!r} (expected adaptive or fixed:<value>)")
    if not 0.0 < float(value) <= 1.0:
        raise argparse.ArgumentTypeError("fixed learning rate must be in (0, 1]")
    return float(value)


def _parse_m_grid(text):
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid --m-grid {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError("empty --m-grid")
    return grid


def _infer_format(path, explicit):
    if explicit:
        return explicit
    return "csv" if path.lower().endswith(".csv") else "libsvm"


def _add_data_opts(p, sampled=True):
    """Data-file options, plus ``--canonical-sort`` and ``--seed`` for commands
    that draw at random (``sampled``), the only ones those two act on."""
    p.add_argument("--data", required=True, help="input dataset path")
    p.add_argument(
        "--format", choices=("libsvm", "csv"), default=None,
        help="input format (default: by extension, .csv means csv)",
    )
    p.add_argument("--label-col", type=int, default=0, help="CSV label column (default 0)")
    p.add_argument(
        "--n-features", type=int, default=None,
        help="force feature count for libsvm input (default: inferred)",
    )
    if sampled:
        p.add_argument(
            "--canonical-sort", action=argparse.BooleanOptionalAction, default=False,
            help="sort records lexicographically before splitting (order-invariant folds)",
        )
        p.add_argument("--seed", type=int, default=TrainConfig.seed,
                       help="random seed (default %(default)s)")


def _add_common_opts(p):
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--config", default=None, help="key=value file of option defaults")


def _add_kernel_opts(p):
    p.add_argument(
        "--standardize", action=argparse.BooleanOptionalAction, default=True,
        help="standardize features on the data being fitted (default on)",
    )
    for name, what in (("lengthscale", "kernel lengthscale"),
                       ("amplitude", "kernel amplitude"), ("jitter", "diagonal jitter")):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"{what}, initial value if learned (default {DEFAULT_TEXT[name]})")


def _add_fold_opts(p, folds):
    p.add_argument("--folds", type=int, default=folds, help=f"fold count (default {folds})")
    p.add_argument("--max-test", type=int, default=100000,
                   help="cap on test-fold size (default 100000)")


def _add_train_opts(p):
    for flag, name, what in (
        ("--batch", "batch_size", "mini-batch size"),
        ("--max-iters", "max_iters", "iteration cap"),
        ("--hyper-every", "hyper_every", "hyperparameter Adam step every N iterations, 0 disables"),
        ("--adam-lr", "adam_lr", "Adam rate"),
        ("--heldout-frac", "heldout_frac", "held-out fraction for --conv heldout"),
    ):
        default = getattr(TrainConfig, name)
        p.add_argument(flag, type=type(default), default=default,
                       help=f"{what} (default %(default)s)")
    p.add_argument(
        "--conv", choices=CONV_MODES, default=TrainConfig.conv_mode,
        help=f"convergence criterion (default %(default)s; params: window-{CONV_WINDOW} "
        f"average of the relative natural-parameter change under "
        f"{TrainConfig.conv_threshold:g}; heldout: window-{CONV_WINDOW} average of the "
        f"relative held-out NLL change under {HELDOUT_THRESHOLD:g})",
    )
    # A string default goes through _parse_lr like a command-line value.
    p.add_argument("--lr", type=_parse_lr, default="adaptive", metavar="RULE",
                   help="step size: adaptive or fixed:<value> (default %(default)s)")
    _add_kernel_opts(p)
    p.add_argument(
        "--trace-train-error", action=argparse.BooleanOptionalAction, default=False,
        help="append a train_error column to the trace (default off)",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pggpc",
        description="Sparse variational GP classification with Polya-Gamma augmentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model; write checkpoint and trace")
    _add_data_opts(p_train)
    _add_common_opts(p_train)
    _add_train_opts(p_train)

    p_pred = sub.add_parser("predict", help="score inputs from a checkpoint")
    _add_data_opts(p_pred, sampled=False)
    _add_common_opts(p_pred)
    p_pred.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
    p_pred.add_argument(
        "--unlabeled", action=argparse.BooleanOptionalAction, default=False,
        help="input has no label column (csv only)",
    )

    p_eval = sub.add_parser("evaluate", help="error/NLL of a checkpoint on labeled data")
    _add_data_opts(p_eval, sampled=False)
    _add_common_opts(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint.json from train")

    p_cv = sub.add_parser("cv", help="k-fold cross-validated benchmark")
    _add_data_opts(p_cv)
    _add_common_opts(p_cv)
    _add_train_opts(p_cv)
    _add_fold_opts(p_cv, folds=10)

    p_gc = sub.add_parser("gibbs-check", help="full-GP VI vs exact Gibbs agreement")
    _add_data_opts(p_gc)
    _add_common_opts(p_gc)
    p_gc.add_argument("--oracle-cap", type=int, default=1000,
                      help="refuse datasets larger than this (default 1000)")
    for flag, default, what in (("--sweeps", GIBBS_SWEEPS, "total Gibbs sweeps"),
                                ("--burn-in", GIBBS_BURN_IN, "burn-in sweeps"),
                                ("--thin", GIBBS_THIN, "thinning stride")):
        p_gc.add_argument(flag, type=int, default=default, help=f"{what} (default %(default)s)")
    p_gc.add_argument("--max-iters", type=int, default=200, help="VI iteration cap (default 200)")
    _add_kernel_opts(p_gc)
    p_gc.add_argument("--corr-threshold", type=float, default=0.99,
                      help="required posterior-mean correlation (default 0.99)")
    p_gc.add_argument("--gap-threshold", type=float, default=0.05,
                      help="allowed mean |p_mcmc - p_vi| (default 0.05)")

    p_sw = sub.add_parser("sweep-m", help="CV error/time across inducing-point counts")
    _add_data_opts(p_sw)
    _add_common_opts(p_sw)
    _add_train_opts(p_sw)
    p_sw.add_argument("--m-grid", type=_parse_m_grid, default=[16, 32, 64, 128],
                      metavar="M1,M2,...", help="inducing-point grid (default 16,32,64,128)")
    _add_fold_opts(p_sw, folds=5)
    for p in (p_train, p_cv):  # sweep-m fits each --m-grid value instead
        p.add_argument("--m", type=int, default=TrainConfig.num_inducing,
                       help="inducing points (default %(default)s)")
    return parser


def _apply_config_file(argv):
    """Expand ``--config FILE`` into flags inserted right after the subcommand.

    The file holds one ``key=value`` per line (``#`` comments allowed); keys
    are option names without the leading dashes.  Flags given on the command
    line come later in argv, so they override the file.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    extra = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if key in _BOOL_OPTS:
                truthy = value.lower() in ("1", "true", "yes", "on")
                extra.append(f"--{key}" if truthy else f"--no-{key}")
            else:
                extra.extend([f"--{key}", value])
    return [argv[0]] + extra + argv[1:]


def _load_labeled(args):
    fmt = _infer_format(args.data, args.format)
    ds = load(args.data, fmt, label_col=args.label_col, n_features=args.n_features)
    if "canonical_sort" in args and args.canonical_sort:  # predict and evaluate have none
        ds = canonical_order(ds)
    return ds


def _train_config(args, n, d, m, seed=None):
    config = TrainConfig(
        num_inducing=m,
        batch_size=args.batch,
        max_iters=args.max_iters,
        fixed_lr=args.lr,
        hyper_every=args.hyper_every,
        adam_lr=args.adam_lr,
        seed=seed if seed is not None else args.seed,
        conv_mode=args.conv,
        heldout_frac=args.heldout_frac,
        init_params=KernelParams.default(d, args.lengthscale, args.amplitude, args.jitter),
        trace_train_error=args.trace_train_error,
    )
    config.num_inducing = min(config.num_inducing, n - config.heldout_rows(n))
    return config


def cmd_train(args):
    ds = _load_labeled(args)
    scaler = None
    if args.standardize:
        ds, scaler = standardize(ds)
    config = _train_config(args, ds.n, ds.d, args.m)
    result = fit(ds, config)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.json")
    trace_path = os.path.join(args.out_dir, "trace.csv")
    preprocess = None
    if scaler is not None:
        preprocess = {"means": scaler.means, "stds": scaler.stds}
    save_checkpoint(ckpt_path, result.state, args.seed, preprocess=preprocess)
    _write_csv(trace_path, "pggpc.trace.v1", result.trace_columns, result.trace)
    print(f"final_elbo={result.final_elbo!r}")
    if result.heldout is not None:
        ev = evaluate(result.state, result.heldout)
        print(f"heldout_error={ev.error_rate!r} heldout_nll={ev.mean_nll!r}")
    print(
        f"wall_seconds={result.wall_seconds:.3f} iters={result.n_iters} "
        f"converged={str(result.converged).lower()}"
    )
    print(f"checkpoint={ckpt_path}")
    print(f"trace={trace_path}")
    return 0


def _prepare_features(args, X, state, preprocess):
    """Checkpoint-ready features: check the feature count, then standardize.

    LIBSVM rows name only their nonzero features, so without ``--n-features``
    a file whose last features are all zero is widened to the checkpoint's d.
    """
    d = state.Z.shape[1]
    libsvm = _infer_format(args.data, args.format) == "libsvm"
    if libsvm and args.n_features is None and X.shape[1] < d:
        X = np.pad(X, ((0, 0), (0, d - X.shape[1])))
    if X.shape[1] != d:
        raise ValueError(
            f"{args.data} has {X.shape[1]} features but checkpoint {args.checkpoint} "
            f"expects {d}"
        )
    if preprocess is None:
        return X
    return Standardizer(preprocess["means"], preprocess["stds"]).apply(X)


def cmd_predict(args):
    state, _, preprocess = load_checkpoint(args.checkpoint)
    fmt = _infer_format(args.data, args.format)
    if args.unlabeled:
        X = load_features(args.data, fmt, n_features=args.n_features)
    else:
        X = _load_labeled(args).X
    X = _prepare_features(args, X, state, preprocess)
    mu, var = latent_predict(state, X)
    p = class_prob(mu, var)
    label = np.where(p >= 0.5, 1, -1)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "predictions.csv")
    rows = zip(range(X.shape[0]), mu, var, p, label)
    _write_csv(out, "pggpc.predictions.v1",
               ("index", "mu_star", "var_star", "p_pos", "predicted_label"), rows)
    print(f"predictions={out} n={X.shape[0]}")
    return 0


def cmd_evaluate(args):
    state, _, preprocess = load_checkpoint(args.checkpoint)
    ds = _load_labeled(args)
    ds = Dataset(_prepare_features(args, ds.X, state, preprocess), ds.y)
    report = evaluate(state, ds)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "metrics.csv")
    _write_csv(out, "pggpc.metrics.v1", ("error_rate", "mean_nll", "n"),
               [(report.error_rate, report.mean_nll, report.n)])
    print(f"error_rate={report.error_rate!r} mean_nll={report.mean_nll!r} n={report.n}")
    return 0


def _run_fold(train, test, args, m, seed):
    """One CV fold: standardize on the training split, fit, evaluate."""
    if args.standardize:
        train, scaler = standardize(train)
        test = scaler.apply_dataset(test)
    result = fit(train, _train_config(args, train.n, train.d, m=m, seed=seed))
    report = evaluate(result.state, test)
    return report.error_rate, report.mean_nll, result.wall_seconds


def _cv_run(ds, args, m):
    """The fold loop of cv and sweep-m, after one check of their fold options;
    each whole test fold from ``CvPlan.folds`` is cut to ``--max-test`` rows here."""
    if not 2 <= args.folds <= ds.n:
        raise ValueError(f"--folds must be at least 2 folds and at most n={ds.n}, "
                         f"got {args.folds}")
    if args.max_test < 1:
        raise ValueError(f"--max-test must be at least 1, got {args.max_test}")
    plan = kfold(ds.n, args.folds, args.seed)
    fold_seeds = np.random.default_rng(args.seed).integers(2**31, size=args.folds)
    results = [
        _run_fold(ds.subset(tr), ds.subset(te[:args.max_test]), args, m, int(seed))
        for (tr, te), seed in zip(plan.folds(), fold_seeds)
    ]
    return np.array(results)  # columns: error, nll, seconds


def _summary(values):
    return float(values.mean()), float(values.std())  # population std over folds


def cmd_cv(args):
    ds = _load_labeled(args)
    results = _cv_run(ds, args, args.m)
    rows = [(i, r[0], r[1], r[2]) for i, r in enumerate(results)]
    me, se = _summary(results[:, 0])
    mn, sn = _summary(results[:, 1])
    mt, st = _summary(results[:, 2])
    rows.append(("mean", me, mn, mt))
    rows.append(("std", se, sn, st))
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "cv.csv")
    _write_csv(out, "pggpc.cv.v1", ("fold", "error_rate", "mean_nll", "train_seconds"), rows)
    print(f"{'fold':>6} {'error':>10} {'nll':>10} {'seconds':>10}")
    for i, r in enumerate(results):
        print(f"{i:>6} {r[0]:>10.4f} {r[1]:>10.4f} {r[2]:>10.3f}")
    print(f"{'mean':>6} {me:>10.4f} {mn:>10.4f} {mt:>10.3f}")
    print(f"{'std':>6} {se:>10.4f} {sn:>10.4f} {st:>10.3f}")
    print(f"cv={out}")
    return 0


def cmd_gibbs_check(args):
    ds = _load_labeled(args)
    if ds.n > args.oracle_cap:
        raise ValueError(
            f"dataset has {ds.n} points, above the Gibbs oracle cap {args.oracle_cap}"
        )
    if args.standardize:
        ds, _ = standardize(ds)
    params = KernelParams.default(ds.d, args.lengthscale, args.amplitude, args.jitter)
    config = TrainConfig(
        num_inducing=ds.n,
        batch_size=ds.n,
        max_iters=args.max_iters,
        conv_threshold=1e-10,
        fixed_lr=1.0,
        hyper_every=0,
        seed=args.seed,
        init_params=params,
        inducing_Z=ds.X,
    )
    result = fit(ds, config)
    chain = gibbs_run(ds, params, iters=args.sweeps, burn_in=args.burn_in,
                      thin=args.thin, seed=args.seed)
    report = compare_to_vi(chain, result.state, ds)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "gibbs_vi.csv")
    _write_csv(out, "pggpc.gibbs_vi.v1",
               ("index", "mcmc_mean", "mcmc_var", "mcmc_ppos", "vi_mean", "vi_var", "vi_ppos"),
               report.rows())
    passed = (report.mean_corr > args.corr_threshold
              and report.mean_abs_prob_gap < args.gap_threshold)
    print(
        f"mean_corr={report.mean_corr:.6f} var_corr={report.var_corr:.6f} "
        f"prob_corr={report.prob_corr:.6f}"
    )
    print(
        f"mean_abs_prob_gap={report.mean_abs_prob_gap:.6f} "
        f"max_abs_prob_gap={report.max_abs_prob_gap:.6f}"
    )
    print(f"agreement={'PASS' if passed else 'FAIL'} "
          f"(corr > {args.corr_threshold}, gap < {args.gap_threshold})")
    print(f"pairs={out}")
    return 0 if passed else 3


def cmd_sweep_m(args):
    ds = _load_labeled(args)
    rows = []
    for m in args.m_grid:
        results = _cv_run(ds, args, m)
        me, se = _summary(results[:, 0])
        mn, sn = _summary(results[:, 1])
        mt, _ = _summary(results[:, 2])
        rows.append((m, me, se, mn, sn, mt))
        print(f"m={m:>5} error={me:.4f}+/-{se:.4f} nll={mn:.4f}+/-{sn:.4f} seconds={mt:.3f}")
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "sweep.csv")
    _write_csv(out, "pggpc.sweep.v1",
               ("m", "mean_error", "std_error", "mean_nll", "std_nll", "mean_train_seconds"),
               rows)
    print(f"sweep={out}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "cv": cmd_cv,
    "gibbs-check": cmd_gibbs_check,
    "sweep-m": cmd_sweep_m,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if "seed" in args and args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
