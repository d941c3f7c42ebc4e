"""Command-line entry point for reproducible experiments.

Subcommands
-----------
train        fit a model, write checkpoint.json and trace.csv
predict      score new inputs from a checkpoint, write predictions.csv
evaluate     error/NLL of a checkpoint on labeled data, write metrics.csv
cv           k-fold cross-validated benchmarking, folds in sequence, once per
             inducing-point count of ``--m M1,M2,...``, write cv.csv
gibbs-check  full-GP VI vs exact Gibbs agreement, write gibbs_vi.csv

Training options default to the fields of ``pggpc.inference.TrainConfig``,
the paper's benchmarking protocol; ``--fixed-lr RHO`` alone switches to a
constant step and ``--heldout-frac F`` alone to the held-out stopping rule.
An optional ``--config`` file of ``key=value`` lines, each naming an option
of its command, overrides the defaults, and explicit flags override the
file.  Flags are taken only as spelled in full.  ``--label-col`` acts only
on labeled CSV input and ``--n-features`` only on LIBSVM input; given
elsewhere, either is an error.  Every command is deterministic in
single-threaded mode (the ones that draw at random under a fixed
``--seed``; ``predict`` and ``evaluate`` draw nothing and take no
``--seed``), and every CSV starts with a schema-version comment.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import Standardizer, canonical_order, kfold, load, load_features, standardize
from .gibbs import GIBBS_BURN_IN, GIBBS_SWEEPS, GIBBS_THIN, chain_size, compare_to_vi, gibbs_run
from .inference import CONV_WINDOW, HELDOUT_THRESHOLD, TRACE_COLUMNS, TrainConfig, fit
from .kernel import DEFAULT_TEXT, FactorizationError, KernelParams
from .model import Dataset, load_checkpoint, save_checkpoint
from .prediction import class_prob, evaluate, latent_predict, predicted_label

def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(out_dir, name, schema, header, rows):
    """Write ``out_dir/name`` (making the directory) and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _parse_m_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid --m list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty --m list")
    return values


def _add_data_opts(p, sampled=True):
    """Data-file and output options, every command's, plus ``--canonical-sort``
    and ``--seed`` for commands that draw at random (``sampled``), the only
    ones those two act on."""
    p.add_argument("--data", required=True, help="input dataset path")
    p.add_argument(
        "--format", choices=("libsvm", "csv"), default=None,
        help="input format (default: by extension, .csv means csv)",
    )
    p.add_argument("--label-col", type=int, default=None,
                   help="label column of labeled csv input (default 0)")
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


def _add_train_opts(p):
    for flag, name, what in (
        ("--batch", "batch_size", "mini-batch size"),
        ("--max-iters", "max_iters", "iteration cap"),
        ("--hyper-every", "hyper_every", "hyperparameter Adam step every N iterations, 0 disables"),
        ("--adam-lr", "adam_lr", "Adam rate"),
    ):
        default = getattr(TrainConfig, name)
        p.add_argument(flag, type=type(default), default=default,
                       help=f"{what} (default %(default)s)")
    p.add_argument(
        "--heldout-frac", type=float, default=TrainConfig.heldout_frac, metavar="F",
        help=f"hold out this fraction of the rows and stop when the window-{CONV_WINDOW} average "
        f"of the relative held-out NLL change is under {HELDOUT_THRESHOLD:g} (default: stop "
        f"when that of the natural parameters is under {TrainConfig.conv_threshold:g})",
    )
    p.add_argument("--fixed-lr", type=float, default=TrainConfig.fixed_lr, metavar="RHO",
                   help="constant step size in (0, 1] (default: the adaptive rate)")
    _add_kernel_opts(p)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pggpc",
        description="Sparse variational GP classification with Polya-Gamma augmentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model; write checkpoint and trace")
    _add_data_opts(p_train)
    _add_train_opts(p_train)
    p_train.add_argument("--m", type=int, default=TrainConfig.num_inducing,
                         help="inducing points (default %(default)s)")

    p_pred = sub.add_parser("predict", help="score inputs from a checkpoint")
    _add_data_opts(p_pred, sampled=False)
    p_pred.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
    p_pred.add_argument(
        "--unlabeled", action=argparse.BooleanOptionalAction, default=False,
        help="do not read labels: csv input has no label column; libsvm label fields are skipped",
    )

    p_eval = sub.add_parser("evaluate", help="error/NLL of a checkpoint on labeled data")
    _add_data_opts(p_eval, sampled=False)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint.json from train")

    p_cv = sub.add_parser("cv", help="k-fold cross-validated benchmark")
    _add_data_opts(p_cv)
    _add_train_opts(p_cv)
    p_cv.add_argument("--m", type=_parse_m_list, default=[TrainConfig.num_inducing],
                      metavar="M1,M2,...", help="inducing points, one fold loop per value "
                      f"(default {TrainConfig.num_inducing})")
    p_cv.add_argument("--folds", type=int, default=10, help="fold count (default %(default)s)")
    p_cv.add_argument("--max-test", type=int, default=100000,
                      help="cap on test-fold size (default %(default)s)")

    p_gc = sub.add_parser("gibbs-check", help="full-GP VI vs exact Gibbs agreement")
    _add_data_opts(p_gc)
    for flag, default, what in (("--oracle-cap", 1000, "refuse datasets larger than this"),
                                ("--sweeps", GIBBS_SWEEPS, "total Gibbs sweeps"),
                                ("--burn-in", GIBBS_BURN_IN, "burn-in sweeps"),
                                ("--thin", GIBBS_THIN, "thinning stride"),
                                ("--max-iters", 200, "VI iteration cap")):
        p_gc.add_argument(flag, type=int, default=default, help=f"{what} (default %(default)s)")
    _add_kernel_opts(p_gc)
    p_gc.add_argument("--corr-threshold", type=float, default=0.99,
                      help="required posterior-mean correlation (default %(default)s)")
    p_gc.add_argument("--gap-threshold", type=float, default=0.05,
                      help="allowed mean |p_mcmc - p_vi| (default %(default)s)")
    for p in (parser, *sub.choices.values()):  # flags in full: "--conf" is not "--config"
        p.allow_abbrev = False
    return parser


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")  # config booleans


def _apply_config_file(argv, parser):
    """Expand ``--config FILE`` into flags inserted right after the subcommand.

    The file holds one ``key=value`` per line (``#`` comments allowed); each
    key is an option of the subcommand without the leading dashes, and a
    switch takes 1/true/yes/on or 0/false/no/off in any case.  Flags
    given on the command line come later in argv, so they override the file.
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
    command = next(a for a in parser._actions if a.dest == "command").choices[argv[0]]
    options = {a.option_strings[0]: a for a in command._actions
               if a.dest not in ("help", "config")}
    extra = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = key.strip(), value.strip()
            flag = "--" + key.replace("_", "-")
            action = options.get(flag)
            if action is None:
                raise ValueError(f"{path}:{lineno}: {key!r} is not an option of {argv[0]} "
                                 "that a config file can set")
            if isinstance(action, argparse.BooleanOptionalAction):  # --x / --no-x
                if value.lower() not in _TRUE + _FALSE:
                    raise ValueError(f"{path}:{lineno}: {key!r} takes one of "
                                     f"{'/'.join(_TRUE)} or {'/'.join(_FALSE)}, got {value!r}")
                extra.append(action.option_strings[0 if value.lower() in _TRUE else 1])
            else:
                extra.extend([flag, value])
    return [argv[0]] + extra + argv[1:]


def _data_format(args, labeled=True):
    """The input's format, stored in ``args.format`` once each format-specific data
    option is known to act on it; without ``--format``, .csv means csv."""
    fmt = args.format or ("csv" if args.data.lower().endswith(".csv") else "libsvm")
    if args.label_col is not None and not (labeled and fmt == "csv"):
        raise ValueError("--label-col applies only to labeled csv input")
    if args.n_features is not None and fmt != "libsvm":
        raise ValueError("--n-features applies only to libsvm input")
    if args.n_features is not None and args.n_features < 1:
        raise ValueError(f"--n-features must be at least 1, got {args.n_features}")
    args.format = fmt
    return fmt


def _load_labeled(args):
    ds = load(args.data, _data_format(args), label_col=args.label_col or 0,
              n_features=args.n_features)
    if "canonical_sort" in args and args.canonical_sort:  # predict and evaluate have none
        ds = canonical_order(ds)
    return ds


def _train_config(args, d, m, seed):
    return TrainConfig(
        num_inducing=m,
        batch_size=args.batch,
        max_iters=args.max_iters,
        fixed_lr=args.fixed_lr,
        hyper_every=args.hyper_every,
        adam_lr=args.adam_lr,
        seed=seed,
        heldout_frac=args.heldout_frac,
        init_params=KernelParams.default(d, args.lengthscale, args.amplitude, args.jitter),
    )


def cmd_train(args):
    ds = _load_labeled(args)
    preprocess = None
    if args.standardize:
        ds, scaler = standardize(ds)
        preprocess = {"means": scaler.means, "stds": scaler.stds}
    config = _train_config(args, ds.d, args.m, args.seed)
    result = fit(ds, config)
    trace_path = _write_csv(args.out_dir, "trace.csv", "pggpc.trace.v1", TRACE_COLUMNS,
                            result.trace)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.json")
    save_checkpoint(ckpt_path, result.state, args.seed, preprocess=preprocess)
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
    if args.format == "libsvm" and args.n_features is None and X.shape[1] < d:
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
    if args.unlabeled:
        X = load_features(args.data, _data_format(args, labeled=False),
                          n_features=args.n_features)
    else:
        X = _load_labeled(args).X
    X = _prepare_features(args, X, state, preprocess)
    mu, var = latent_predict(state, X)
    p = class_prob(mu, var)
    rows = zip(range(X.shape[0]), mu, var, p, predicted_label(p))
    out = _write_csv(args.out_dir, "predictions.csv", "pggpc.predictions.v1",
                     ("index", "mu_star", "var_star", "p_pos", "predicted_label"), rows)
    print(f"predictions={out} n={X.shape[0]}")
    return 0


def cmd_evaluate(args):
    state, _, preprocess = load_checkpoint(args.checkpoint)
    ds = _load_labeled(args)
    ds = Dataset(_prepare_features(args, ds.X, state, preprocess), ds.y)
    report = evaluate(state, ds)
    _write_csv(args.out_dir, "metrics.csv", "pggpc.metrics.v1", ("error_rate", "mean_nll", "n"),
               [(report.error_rate, report.mean_nll, report.n)])
    print(f"error_rate={report.error_rate!r} mean_nll={report.mean_nll!r} n={report.n}")
    return 0


def _run_fold(train, test, args, m, seed):
    """One CV fold: standardize on the training split, fit, evaluate."""
    if args.standardize:
        train, scaler = standardize(train)
        test = scaler.apply_dataset(test)
    result = fit(train, _train_config(args, train.d, m, seed))
    report = evaluate(result.state, test)
    return report.error_rate, report.mean_nll, result.wall_seconds


def _cv_run(ds, args, m):
    """cv's fold loop at ``m`` inducing points, after one check of the fold
    options; each whole test fold from ``kfold`` is cut to ``--max-test`` rows here."""
    if not 2 <= args.folds <= ds.n:
        raise ValueError(f"--folds must be at least 2 folds and at most n={ds.n}, "
                         f"got {args.folds}")
    if args.max_test < 1:
        raise ValueError(f"--max-test must be at least 1, got {args.max_test}")
    fold_seeds = np.random.default_rng(args.seed).integers(2**31, size=args.folds)
    results = [
        _run_fold(ds.subset(tr), ds.subset(te[:args.max_test]), args, m, int(seed))
        for (tr, te), seed in zip(kfold(ds.n, args.folds, args.seed), fold_seeds)
    ]
    return np.array(results)  # columns: error, nll, seconds


def cmd_cv(args):
    ds = _load_labeled(args)
    if min(args.m) < 1:  # before the folds of any earlier value are fitted
        raise ValueError(f"--m must list counts of at least 1, got {args.m}")
    rows = []
    for m in args.m:
        results = _cv_run(ds, args, m)
        cols = results.T  # error, nll, seconds; std is the population std over folds
        rows += [(m, i, *r) for i, r in enumerate(results)]
        rows += [(m, "mean", *(c.mean() for c in cols)), (m, "std", *(c.std() for c in cols))]
    out = _write_csv(args.out_dir, "cv.csv", "pggpc.cv.v2",
                     ("m", "fold", "error_rate", "mean_nll", "train_seconds"), rows)
    print(f"{'m':>6} {'fold':>6} {'error':>10} {'nll':>10} {'seconds':>10}")
    for row in rows:
        print("{:>6} {:>6} {:>10.4f} {:>10.4f} {:>10.3f}".format(*row))
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
    chain_size(args.sweeps, args.burn_in, args.thin)  # before the fit, which the chain follows
    result = fit(ds, TrainConfig.full_gp(ds, params, args.max_iters, args.seed))
    samples = gibbs_run(result.state.mm, ds.y, args.sweeps, args.burn_in, args.thin, args.seed)
    report = compare_to_vi(samples, result.state, ds)
    header = ("index", "mcmc_mean", "mcmc_var", "mcmc_ppos", "vi_mean", "vi_var", "vi_ppos")
    rows = zip(range(ds.n), *(getattr(report, name) for name in header[1:]))
    out = _write_csv(args.out_dir, "gibbs_vi.csv", "pggpc.gibbs_vi.v1", header, rows)
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


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "cv": cmd_cv,
    "gibbs-check": cmd_gibbs_check,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        if argv and argv[0] in _COMMANDS:
            argv = _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        if "seed" in args and args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
