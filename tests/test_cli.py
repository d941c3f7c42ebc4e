"""End-to-end tests of the command-line interface."""

import argparse
import base64
import inspect
import json
import re
import shlex
import subprocess
from pathlib import Path

import numpy as np
import pytest

from pggpc import cli
from pggpc.cli import _build_parser, main
from pggpc.data import save
from pggpc.gibbs import GIBBS_BURN_IN, GIBBS_SWEEPS, GIBBS_THIN, gibbs_run
from pggpc.inference import TrainConfig
from pggpc.kernel import KernelParams
from pggpc.model import Dataset, load_checkpoint
from pggpc.prediction import evaluate


def _two_blobs(n, seed=0, spread=0.5):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate(
        [rng.normal(-2.0, spread, size=(half, 2)), rng.normal(2.0, spread, size=(half, 2))]
    )
    y = np.concatenate([-np.ones(half), np.ones(half)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order])


@pytest.fixture(scope="module")
def blob_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    data = _two_blobs(40)
    paths = {"libsvm": str(root / "blobs.txt"), "csv": str(root / "blobs.csv")}
    save(data, paths["libsvm"], "libsvm")
    save(data, paths["csv"], "csv")
    small = _two_blobs(16, seed=1)
    paths["small"] = str(root / "small.txt")
    save(small, paths["small"], "libsvm")
    return paths


FAST = ["--m", "4", "--batch", "20", "--max-iters", "30", "--hyper-every", "0"]


def _train(data_path, out_dir, *extra):
    return main(["train", "--data", data_path, "--out-dir", str(out_dir), *FAST, *extra])


def _read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


class TestTrain:
    def test_writes_checkpoint_and_trace(self, blob_files, tmp_path, capsys):
        assert _train(blob_files["libsvm"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "final_elbo=" in out
        assert "checkpoint=" in out and "trace=" in out

        trace = _read_lines(tmp_path / "trace.csv")
        assert trace[0] == "# schema=pggpc.trace.v1"
        assert trace[1] == "iter,wall_seconds,elbo_estimate,rho"
        assert len(trace) > 2

        with open(tmp_path / "checkpoint.json") as fh:
            ckpt = json.load(fh)
        assert ckpt["schema"] == "pggpc.checkpoint.v1"

    def test_same_seed_same_checkpoint(self, blob_files, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _train(blob_files["libsvm"], a, "--seed", "5") == 0
        assert _train(blob_files["libsvm"], b, "--seed", "5") == 0
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_different_seed_changes_fit(self, blob_files, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _train(blob_files["libsvm"], a, "--seed", "5") == 0
        assert _train(blob_files["libsvm"], b, "--seed", "6") == 0
        assert (a / "checkpoint.json").read_bytes() != (b / "checkpoint.json").read_bytes()

    def test_heldout_convergence_reports_metrics(self, blob_files, tmp_path, capsys):
        code = _train(blob_files["libsvm"], tmp_path, "--heldout-frac", "0.2")
        assert code == 0
        out = capsys.readouterr().out
        assert "heldout_error=" in out and "heldout_nll=" in out

    def test_heldout_convergence_caps_m_at_training_rows(self, blob_files, tmp_path, capsys):
        # 40 points: the default m = 100 must shrink to the 36 rows left after
        # holding out round(0.1 * 40) = 4, not to the full 40.
        code = main(["train", "--data", blob_files["libsvm"], "--out-dir", str(tmp_path),
                     "--heldout-frac", "0.1", "--max-iters", "5", "--hyper-every", "0"])
        assert code == 0, capsys.readouterr().err
        state, _, _ = load_checkpoint(str(tmp_path / "checkpoint.json"))
        assert state.m == 36

    def test_csv_input_by_extension(self, blob_files, tmp_path):
        assert _train(blob_files["csv"], tmp_path) == 0

    def test_format_flag_overrides_the_extension(self, blob_files, tmp_path, capsys):
        # The same rows as CSV named .txt and as LIBSVM named .csv.
        csv_txt, libsvm_csv = tmp_path / "blobs_csv.txt", tmp_path / "blobs_libsvm.csv"
        csv_txt.write_bytes(Path(blob_files["csv"]).read_bytes())
        libsvm_csv.write_bytes(Path(blob_files["libsvm"]).read_bytes())
        assert _train(str(csv_txt), tmp_path / "a", "--format", "csv") == 0
        assert _train(str(libsvm_csv), tmp_path / "b", "--format", "libsvm") == 0
        ckpt = [(tmp_path / run / "checkpoint.json").read_bytes() for run in ("a", "b")]
        assert ckpt[0] == ckpt[1]
        capsys.readouterr()
        assert _train(str(csv_txt), tmp_path / "c") == 1  # read as LIBSVM by its extension
        assert f"{csv_txt}:1:" in _one_error_line(capsys)

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.txt"), *FAST])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "nope.txt" in err

    def test_explicit_default_kernel_matches_plain_train(self, blob_files, tmp_path):
        # d = 2: log(sqrt(2)) and log(2) / 2 differ in the last bit.
        a, b = tmp_path / "a", tmp_path / "b"
        assert _train(blob_files["libsvm"], a) == 0
        assert _train(blob_files["libsvm"], b, "--amplitude", "1", "--jitter", "1e-6") == 0
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


def _one_error_line(capsys):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("flags, name", [
    (["--hyper-every", "-1"], "hyper_every"),
    (["--adam-lr", "-0.5"], "adam_lr"),
    (["--heldout-frac", "-0.3"], "heldout_frac"),
    (["--max-iters", "-4"], "max_iters"),
    (["--adam-lr", "nan"], "adam_lr"),
    (["--heldout-frac", "nan"], "heldout_frac"),
    (["--adam-lr", "inf"], "adam_lr"),
    (["--seed", "-1"], "--seed"),
    (["--fixed-lr", "2"], "fixed_lr"),
    (["--batch", "0", "--max-iters", "0"], "batch_size"),  # no batch is drawn
])
def test_train_option_out_of_range_is_one_error_line(flags, name, blob_files, tmp_path, capsys):
    code = main(["train", "--data", blob_files["libsvm"], "--out-dir", str(tmp_path), *flags])
    assert code == 1
    assert _one_error_line(capsys).startswith(f"error: {name} must")
    assert not (tmp_path / "checkpoint.json").exists()


_KERNEL_FLAGS = [
    (["--lengthscale", "0"], "lengthscale"),
    (["--lengthscale", "-1"], "lengthscale"),
    (["--lengthscale", "nan"], "lengthscale"),
    (["--amplitude", "0"], "amplitude"),
    (["--jitter", "0"], "jitter"),
    (["--jitter", "-1"], "jitter"),
]
_GIBBS = ["gibbs-check", "--sweeps", "20", "--burn-in", "5", "--max-iters", "2"]
_CV = ["cv", "--folds", "2", "--max-iters", "2"]
_CV_GRID = ["cv", "--m", "2,4", "--folds", "2", "--max-iters", "2"]


@pytest.mark.parametrize("command, flags, name", [
    *((["train", "--max-iters", "2"], flags, name) for flags, name in _KERNEL_FLAGS),
    *((_GIBBS, flags, name) for flags, name in _KERNEL_FLAGS),
    (_CV, ["--jitter", "0"], "jitter"),
    (_CV_GRID, ["--lengthscale", "-1"], "lengthscale"),
    *((command, ["--seed", "-1"], "--seed") for command in (_GIBBS, _CV, _CV_GRID)),
    *((command, ["--max-test", "0"], "--max-test") for command in (_CV, _CV_GRID)),
    (_CV, ["--max-test", "-3"], "--max-test"),  # test[:-3] cut each test fold
    (_CV_GRID, ["--folds", "1"], "--folds"),
    (_CV, ["--folds", "17"], "--folds"),  # blob_files["small"] has 16 rows
    (_CV_GRID, ["--m", "2,0"], "--m"),  # it failed after fitting every fold at m = 2
])
def test_kernel_option_or_seed_out_of_range_is_one_error_line(command, flags, name, blob_files,
                                                             tmp_path, capsys):
    # --seed -1 on train is a case of test_train_option_out_of_range_is_one_error_line;
    # the fold options of cv are checked here too.
    out_dir = tmp_path / "out"
    code = main([command[0], "--data", blob_files["small"], "--out-dir", str(out_dir),
                 *command[1:], *flags])
    assert code == 1
    assert _one_error_line(capsys).startswith(f"error: {name} must")
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_feature_near_the_float64_limit_is_standardized(tmp_path, capsys):
    # Its spread overflowed to inf: train warned, exited 0 and the feature
    # was all zeros.  Scored with the stored spread, it still tells the
    # classes apart.
    X = np.column_stack([np.repeat([-1.5e308, 1.5e308], 10), np.zeros(20)])
    y = np.repeat([-1.0, 1.0], 10)
    path = str(tmp_path / "edge.txt")
    save(Dataset(X, y), path, "libsvm")
    assert main(["train", "--data", path, "--out-dir", str(tmp_path), *FAST]) == 0
    _, _, preprocess = load_checkpoint(str(tmp_path / "checkpoint.json"))
    assert preprocess["stds"][0] == 1.5e308
    assert main(["evaluate", "--data", path, "--checkpoint", str(tmp_path / "checkpoint.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert "error_rate=0.0 " in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_adam_proposals_are_reverted(blob_files, tmp_path, capsys):
    # Each step proposes log-parameters near +/-1e300; it ended the run with
    # "error: log_lengthscale must be finite ...".  Reverted, the kernel
    # stays at its start.
    code = main(["train", "--data", blob_files["small"], "--out-dir", str(tmp_path),
                 "--max-iters", "6", "--m", "4", "--adam-lr", "1e300", "--hyper-every", "1"])
    assert code == 0, capsys.readouterr().err
    state, _, _ = load_checkpoint(str(tmp_path / "checkpoint.json"))
    assert state.params == KernelParams.default(2)


@pytest.mark.parametrize("command", [
    ["train", "--m", "30", "--max-iters", "5"],
    ["gibbs-check", "--sweeps", "20", "--burn-in", "5", "--max-iters", "5"],
])
def test_degenerate_kernel_is_one_error_line(command, tmp_path, capsys):
    # 15 + 15 copies of two points: with no usable jitter, K_mm is singular.
    X = np.repeat([[0.0, 0.0], [1.0, 1.0]], 15, axis=0)
    y = np.repeat([-1.0, 1.0], 15)
    path = str(tmp_path / "dup.csv")
    save(Dataset(X, y), path, "csv")
    code = main([command[0], "--data", path, "--no-standardize", "--jitter", "1e-300",
                 "--out-dir", str(tmp_path), *command[1:]])
    assert code == 1
    assert "Cholesky failed" in _one_error_line(capsys)


_FLAG_FIELDS = {
    "m": "num_inducing", "batch": "batch_size", "max_iters": "max_iters",
    "hyper_every": "hyper_every", "adam_lr": "adam_lr", "fixed_lr": "fixed_lr",
    "heldout_frac": "heldout_frac", "seed": "seed",
}


@pytest.mark.parametrize("command", ["train", "cv"])
def test_training_flag_defaults_are_the_train_config_fields(command):
    args = _build_parser().parse_args([command, "--data", "unused.txt"])
    config = TrainConfig()
    for flag, name in _FLAG_FIELDS.items():
        default = getattr(config, name)
        if flag == "m" and command == "cv":  # cv runs its fold loop once per --m value
            default = [default]
        assert getattr(args, flag) == default, flag


def test_gibbs_check_chain_defaults_are_the_gibbs_run_defaults():
    args = _build_parser().parse_args(["gibbs-check", "--data", "unused.txt"])
    assert (args.sweeps, args.burn_in, args.thin) == (GIBBS_SWEEPS, GIBBS_BURN_IN, GIBBS_THIN)
    run = inspect.signature(gibbs_run).parameters
    assert (run["iters"].default, run["burn_in"].default, run["thin"].default) == (
        GIBBS_SWEEPS, GIBBS_BURN_IN, GIBBS_THIN)


def test_spelled_out_protocol_matches_plain_train(tmp_path):
    # The paper's benchmarking protocol, written out flag by flag.  With
    # n = 120 > 100 the inducing and batch sizes are not clamped to n.
    protocol = ["--m", "100", "--batch", "100", "--max-iters", "1000",
                "--hyper-every", "10", "--adam-lr", "0.02", "--seed", "0"]
    path = str(tmp_path / "blobs120.txt")
    save(_two_blobs(120, seed=2, spread=1.5), path, "libsvm")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--data", path, "--out-dir", str(a)]) == 0
    assert main(["train", "--data", path, "--out-dir", str(b), *protocol]) == 0
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


@pytest.mark.parametrize("command", ["train", "gibbs-check"])
def test_help_lists_kernel_options(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    for flag in ("--standardize", "--lengthscale", "--amplitude", "--jitter"):
        assert flag in out


@pytest.fixture(scope="module")
def trained(blob_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert _train(blob_files["libsvm"], out, "--seed", "2") == 0
    return str(out / "checkpoint.json")


class TestPredictAndEvaluate:
    def test_predict_writes_scored_rows(self, blob_files, trained, tmp_path, capsys):
        code = main([
            "predict", "--data", blob_files["libsvm"],
            "--checkpoint", trained, "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert "predictions=" in capsys.readouterr().out
        lines = _read_lines(tmp_path / "predictions.csv")
        assert lines[0] == "# schema=pggpc.predictions.v1"
        assert lines[1] == "index,mu_star,var_star,p_pos,predicted_label"
        assert len(lines) == 2 + 40
        probs = [float(l.split(",")[3]) for l in lines[2:]]
        labels = [int(l.split(",")[4]) for l in lines[2:]]
        assert all(0.0 < p < 1.0 for p in probs)
        assert set(labels) <= {-1, 1}

    def test_predict_unlabeled_csv(self, blob_files, trained, tmp_path):
        rng = np.random.default_rng(0)
        feat = tmp_path / "features.csv"
        with open(feat, "w") as fh:
            for row in rng.normal(size=(5, 2)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        code = main([
            "predict", "--data", str(feat), "--unlabeled",
            "--checkpoint", trained, "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert len(_read_lines(tmp_path / "predictions.csv")) == 2 + 5

    @pytest.mark.parametrize("row", ["nan,0.3", "inf,1"])
    def test_predict_unlabeled_rejects_non_finite_features(self, trained, tmp_path, capsys, row):
        # A NaN row was written as "1,nan,nan,nan,-1" and an Inf row scored p = 0.5.
        feat = tmp_path / "features.csv"
        feat.write_text(f"0.1,0.2\n{row}\n")
        code = main(["predict", "--data", str(feat), "--unlabeled",
                     "--checkpoint", trained, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        line = _one_error_line(capsys)
        assert f"{feat}:2: feature value" in line and "not a finite number" in line
        assert not (tmp_path / "out" / "predictions.csv").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_labeled_non_finite_features_name_the_file_and_line(self, command, trained,
                                                                  tmp_path, capsys):
        # These printed only "error: features contain NaN or Inf".
        data = tmp_path / "bad.txt"
        data.write_text("+1 1:0.5 2:0.1\n-1 1:-0.5 2:nan\n+1 1:0.7 2:0.2\n")
        args = ["--data", str(data), "--out-dir", str(tmp_path / "out")]
        if command == "evaluate":
            args += ["--checkpoint", trained]
        assert main([command, *args]) == 1
        assert f"{data}:2: feature value nan is not a finite number" in _one_error_line(capsys)

    def test_predict_unlabeled_skips_libsvm_label_fields(self, blob_files, trained, tmp_path,
                                                        capsys):
        # Placeholder labels (all 0) fail the labeled path as non-binary;
        # --unlabeled skips them and scores the rows as with real labels.
        zeros = tmp_path / "zeros.txt"
        with open(blob_files["libsvm"]) as src, open(zeros, "w") as dst:
            for line in src:
                dst.write("0 " + line.split(" ", 1)[1])
        common = ["--checkpoint", trained, "--out-dir"]
        assert main(["predict", "--data", str(zeros), *common, str(tmp_path / "a")]) == 1
        assert "non-binary labels" in _one_error_line(capsys)
        assert main(["predict", "--data", str(zeros), "--unlabeled",
                     *common, str(tmp_path / "b")]) == 0
        assert main(["predict", "--data", blob_files["libsvm"], *common,
                     str(tmp_path / "c")]) == 0
        assert ((tmp_path / "b" / "predictions.csv").read_bytes()
                == (tmp_path / "c" / "predictions.csv").read_bytes())

    def test_evaluate_scores_separable_blobs(self, blob_files, trained, tmp_path, capsys):
        code = main([
            "evaluate", "--data", blob_files["libsvm"],
            "--checkpoint", trained, "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "error_rate=" in out and "mean_nll=" in out
        lines = _read_lines(tmp_path / "metrics.csv")
        assert lines[0] == "# schema=pggpc.metrics.v1"
        assert lines[1] == "error_rate,mean_nll,n"
        error_rate, mean_nll, n = lines[2].split(",")
        assert float(error_rate) <= 0.1  # crisply separated blobs
        assert float(mean_nll) < 0.5
        assert int(n) == 40

    def test_missing_checkpoint_exits_nonzero(self, blob_files, tmp_path, capsys):
        code = main([
            "evaluate", "--data", blob_files["libsvm"],
            "--checkpoint", str(tmp_path / "none.json"),
        ])
        assert code == 1
        assert "none.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_feature_count_mismatch_names_both_files(self, trained, tmp_path, capsys,
                                                     command):
        path = str(tmp_path / "wide.txt")
        save(Dataset(np.ones((4, 3)), np.array([1.0, -1.0, 1.0, -1.0])), path, "libsvm")
        code = main([command, "--data", path, "--checkpoint", trained,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        line = _one_error_line(capsys)
        assert "wide.txt" in line and "checkpoint.json" in line
        assert "3 features" in line and "expects 2" in line

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_libsvm_with_trailing_zero_features_reads_d_from_checkpoint(
            self, tmp_path, capsys, command):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        train_path = str(tmp_path / "train3.txt")
        save(Dataset(X, y), train_path, "libsvm")
        assert _train(train_path, tmp_path / "model") == 0
        # Rows that never name feature 3: the file alone implies d = 2.
        test_path = str(tmp_path / "test2.txt")
        save(Dataset(X[:8, :2], y[:8]), test_path, "libsvm")
        checkpoint = str(tmp_path / "model" / "checkpoint.json")
        outputs = []
        for extra in ([], ["--n-features", "3"]):
            out_dir = tmp_path / f"out{len(extra)}"
            code = main([command, "--data", test_path, "--checkpoint", checkpoint,
                         "--out-dir", str(out_dir), *extra])
            assert code == 0, capsys.readouterr().err
            name = "predictions.csv" if command == "predict" else "metrics.csv"
            outputs.append((out_dir / name).read_bytes())
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, data, option", [
    (["predict", "--unlabeled", "--label-col", "1"], "features", "--label-col"),
    (["train", "--label-col", "3"], "libsvm", "--label-col"),
    (["train", "--n-features", "50"], "csv", "--n-features"),
])
def test_data_option_that_cannot_act_is_one_error_line(command, data, option, blob_files,
                                                       trained, tmp_path, capsys):
    # --label-col acts only on labeled CSV input and --n-features only on
    # LIBSVM input; each of these runs exited 0 with the option ignored.
    paths = dict(blob_files, features=str(tmp_path / "features.csv"))
    np.savetxt(paths["features"], np.random.default_rng(0).normal(size=(5, 2)), delimiter=",")
    extra = ["--checkpoint", trained] if command[0] == "predict" else FAST
    out_dir = tmp_path / "out"
    code = main([command[0], "--data", paths[data], "--out-dir", str(out_dir), *extra,
                 *command[1:]])
    assert code == 1
    assert option in _one_error_line(capsys)
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, flags, name", [
    ("labels", [], "labels.csv"),
    ("libsvm", ["--n-features", "0"], "--n-features"),
    ("libsvm", ["--n-features", "-2"], "--n-features"),
])
def test_input_with_no_feature_columns_is_one_error_line(data, flags, name, blob_files,
                                                         tmp_path, capsys):
    # A label-only CSV reached KernelParams.default(0) (a divide-by-zero
    # warning, then an error naming log_lengthscale), and --n-features 0 or
    # below failed on the file's first feature index or as "too large".
    paths = dict(blob_files, labels=str(tmp_path / "labels.csv"))
    Path(paths["labels"]).write_text("1\n0\n1\n0\n")
    out_dir = tmp_path / "out"
    code = main(["train", "--data", paths[data], "--out-dir", str(out_dir), *FAST, *flags])
    assert code == 1
    assert name in _one_error_line(capsys)
    assert not out_dir.exists()


def _encode(arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(doc):
    return np.frombuffer(base64.b64decode(doc["data"]), dtype="<f8").reshape(doc["shape"])


def _drop_jitter(doc):
    del doc["params"]["log_jitter"]


def _rename_param(doc):
    doc["params"]["log_noise"] = doc["params"].pop("log_amplitude")


def _drop_seed(doc):
    del doc["seed"]


def _float_seed(doc):
    doc["seed"] = 2.5


def _nan_param(doc):
    doc["params"]["log_lengthscale"] = float("nan")


def _short_eta1(doc):
    doc["arrays"]["eta1"] = _encode(_decode(doc["arrays"]["eta1"])[:-1])


def _wide_eta2(doc):
    eta2 = _decode(doc["arrays"]["eta2"])
    doc["arrays"]["eta2"] = _encode(np.hstack([eta2, eta2[:, :1]]))


def _flat_z(doc):
    doc["arrays"]["Z"] = _encode(_decode(doc["arrays"]["Z"]).ravel())


def _drop_z(doc):
    del doc["arrays"]["Z"]


def _garbled_eta1(doc):
    doc["arrays"]["eta1"]["data"] = "not base64!"


def _positive_eta2(doc):
    doc["arrays"]["eta2"] = _encode(np.eye(len(_decode(doc["arrays"]["eta1"]))))


def _asymmetric_eta2(doc):
    # One ulp off symmetry: the moments read one triangle of eta2, so the
    # other would be dropped without a word.
    eta2 = _decode(doc["arrays"]["eta2"]).copy()
    eta2[0, 1] = np.nextafter(eta2[0, 1], np.inf)
    doc["arrays"]["eta2"] = _encode(eta2)


def _huge_eta2(doc):
    # -2 eta2 overflows: a RuntimeWarning, then scipy's "array must not contain infs".
    eta2 = _decode(doc["arrays"]["eta2"]).copy()
    eta2[0, 0] = -1.7e308
    doc["arrays"]["eta2"] = _encode(eta2)


def _vast_amplitude(doc):
    doc["params"]["log_amplitude"] = 1000.0  # exp overflows


def _singular_kmm(doc):
    # Two equal inducing inputs and a jitter of e^-700: K_mm is singular at
    # every escalation, and "Cholesky failed" named neither file nor field.
    Z = _decode(doc["arrays"]["Z"]).copy()
    Z[1] = Z[0]
    doc["arrays"]["Z"] = _encode(Z)
    doc["params"]["log_jitter"] = -700.0


def _long_means(doc):
    doc["preprocess"]["means"] = _encode(np.zeros(3))


def _zero_std(doc):
    stds = _decode(doc["preprocess"]["stds"]).copy()
    stds[0] = 0.0
    doc["preprocess"]["stds"] = _encode(stds)


@pytest.mark.parametrize("mutate, field", [
    (_drop_jitter, "params"),
    (_rename_param, "params"),
    (_drop_seed, "seed"),
    (_float_seed, "seed"),
    (_nan_param, "params.log_lengthscale"),
    (_short_eta1, "arrays.eta1"),
    (_wide_eta2, "arrays.eta2"),
    (_flat_z, "arrays.Z"),
    (_drop_z, "arrays.Z"),
    (_garbled_eta1, "arrays.eta1"),
    (_positive_eta2, "arrays.eta2"),
    (_asymmetric_eta2, "arrays.eta2"),
    (_huge_eta2, "arrays.eta2"),
    (_vast_amplitude, "params"),
    (_singular_kmm, "'arrays.Z' and params"),
    (_long_means, "preprocess.means"),
    (_zero_std, "preprocess.stds"),
    (lambda doc: [doc], "JSON object"),
    (b"{", "JSON"),
    (b"\xff\xfe\x00", "JSON"),
])
def test_malformed_checkpoint_is_one_error_line(mutate, field, blob_files, trained, tmp_path,
                                                capsys):
    with open(trained) as fh:
        doc = json.load(fh)
    path = tmp_path / "doctored.json"
    if isinstance(mutate, bytes):
        path.write_bytes(mutate)
    else:
        doc = mutate(doc) or doc
        path.write_text(json.dumps(doc))
    code = main(["predict", "--data", blob_files["libsvm"], "--checkpoint", str(path),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    line = _one_error_line(capsys)
    assert "doctored.json" in line and field in line


def test_non_finite_checkpoint_array_is_one_error_line(blob_files, trained, tmp_path, capsys):
    with open(trained) as fh:
        doc = json.load(fh)
    eta1 = _decode(doc["arrays"]["eta1"]).copy()
    eta1[1] = np.inf
    doc["arrays"]["eta1"] = _encode(eta1)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code = main(["evaluate", "--data", blob_files["libsvm"], "--checkpoint", str(path),
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert _one_error_line(capsys) == (
        f"error: {path}: checkpoint field 'arrays.eta1' holds NaN or Inf")
    assert not out_dir.exists()


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, blob_files, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "seed=123\n"
            "max_iters=5  # flag below overrides this\n"
            "m=4\n"
            "batch=20\n"
            "hyper-every=0\n"
            "standardize=false\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        code = main([
            "train", "--data", blob_files["libsvm"], "--config", str(cfg),
            "--max-iters", "7", "--out-dir", str(a),
        ])
        assert code == 0
        out_a = capsys.readouterr().out
        code = main([
            "train", "--data", blob_files["libsvm"], "--seed", "123", *FAST,
            "--max-iters", "7", "--no-standardize", "--out-dir", str(b),
        ])
        assert code == 0
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
        with open(a / "checkpoint.json") as fh:
            assert json.load(fh).get("preprocess") is None
        iters = [tok for tok in out_a.split() if tok.startswith("iters=")]
        assert iters and int(iters[0].split("=")[1]) <= 7

    def test_malformed_config_line(self, blob_files, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a sentence\n")
        code = main([
            "train", "--data", blob_files["libsvm"], "--config", str(cfg), *FAST,
        ])
        assert code == 1
        assert "expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["ture", "", "2"])
    def test_unrecognised_boolean_is_one_error_line(self, value, blob_files, tmp_path, capsys):
        # Each turned standardization off: train exited 0 and wrote a
        # checkpoint with no preprocess block.
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"seed=1\nstandardize={value}\n")
        out_dir = tmp_path / "out"
        code = main(["train", "--data", blob_files["libsvm"], "--config", str(cfg),
                     "--out-dir", str(out_dir), *FAST])
        assert code == 1
        line = _one_error_line(capsys)
        assert "bool.cfg:2:" in line and "standardize" in line
        assert not out_dir.exists()

    @pytest.mark.parametrize("value, flag", [
        *((v, "--standardize") for v in ("1", "TRUE", "Yes", "on")),
        *((v, "--no-standardize") for v in ("0", "False", "NO", "off")),
    ])
    def test_recognised_booleans_in_any_case(self, value, flag, tmp_path):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"standardize={value}\n")
        argv = cli._apply_config_file(["train", "--data", "x", "--config", str(cfg)],
                                      _build_parser())
        assert argv == ["train", flag, "--data", "x", "--config", str(cfg)]

    def test_config_flag_with_an_equals_sign_reads_the_file(self, blob_files, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("max-iters=3\nm=5\nseed=7\n")
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir, spelling in ((a, ["--config", str(cfg)]), (b, [f"--config={cfg}"])):
            assert main(["train", "--data", blob_files["libsvm"], *spelling,
                         "--out-dir", str(out_dir)]) == 0
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
        doc = json.loads((b / "checkpoint.json").read_text())
        assert (doc["seed"], doc["arrays"]["eta1"]["shape"]) == (7, [5])  # the file's seed and m

    def test_an_abbreviated_config_flag_is_unrecognised(self, blob_files, tmp_path, capsys):
        # argparse took "--conf" for --config, which the file expansion reads
        # only in full: train exited 0 at m=80 after 5 iterations, ignoring
        # the file's m=5 and max-iters=3.
        cfg = tmp_path / "abbrev.cfg"
        cfg.write_text("max-iters=3\nm=5\n")
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", blob_files["libsvm"], "--conf", str(cfg),
                  "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --conf" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("command, extra", [
    ("train", []), ("predict", ["--checkpoint", "c.json"]),
    ("evaluate", ["--checkpoint", "c.json"]), ("cv", []), ("gibbs-check", []),
])
def test_no_command_takes_an_abbreviated_flag(command, extra, blob_files, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", blob_files["libsvm"], *extra, "--out-d", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out-d" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("train", "conv=heldout"),  # an option that no longer exists
    ("predict", "max_iters=5"),  # an option of another command
])
def test_config_key_that_is_not_an_option_is_one_error_line(command, key, blob_files, trained,
                                                            tmp_path, capsys):
    # Both exited 2 with argparse's usage text.
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"# options\n{key}\n")
    extra = ["--checkpoint", trained] if command == "predict" else FAST
    out_dir = tmp_path / "out"
    code = main([command, "--data", blob_files["libsvm"], "--config", str(cfg),
                 "--out-dir", str(out_dir), *extra])
    assert code == 1
    line = _one_error_line(capsys)
    assert f"opts.cfg:2: {key.split('=')[0]!r}" in line
    assert not out_dir.exists()


class TestCv:
    def test_writes_per_fold_and_summary_rows(self, blob_files, tmp_path, capsys):
        code = main([
            "cv", "--data", blob_files["libsvm"], "--folds", "3", *FAST,
            "--canonical-sort", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cv=" in out
        lines = _read_lines(tmp_path / "cv.csv")
        assert lines[0] == "# schema=pggpc.cv.v2"
        assert lines[1] == "m,fold,error_rate,mean_nll,train_seconds"
        assert len(lines) == 2 + 3 + 2  # folds + mean + std
        assert lines[-2].startswith("4,mean,")
        assert lines[-1].startswith("4,std,")

    def test_max_test_caps_fold_size(self, blob_files, tmp_path, monkeypatch):
        # Each 10-row test fold of the 40-row file is scored on its first 3 rows.
        scored = []

        def recording_evaluate(state, test_set):
            scored.append(test_set.n)
            return evaluate(state, test_set)

        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        code = main(["cv", "--data", blob_files["libsvm"], "--folds", "4", "--max-test", "3",
                     *FAST, "--out-dir", str(tmp_path)])
        assert code == 0
        assert scored == [3, 3, 3, 3]

    def test_too_few_folds(self, blob_files, capsys):
        code = main(["cv", "--data", blob_files["libsvm"], "--folds", "1", *FAST])
        assert code == 1
        assert "at least 2 folds" in capsys.readouterr().err

    def test_m_list_writes_rows_per_m(self, blob_files, tmp_path, capsys):
        code = main([
            "cv", "--data", blob_files["libsvm"], "--m", "2,4",
            "--folds", "2", "--batch", "20", "--max-iters", "15",
            "--hyper-every", "0", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        printed = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:-1]]
        lines = _read_lines(tmp_path / "cv.csv")
        assert lines[1] == "m,fold,error_rate,mean_nll,train_seconds"
        rows = [line.split(",")[:2] for line in lines[2:]]
        assert rows == printed == [[m, fold] for m in ("2", "4")
                                   for fold in ("0", "1", "mean", "std")]

    def test_empty_m_list_rejected(self, blob_files):
        with pytest.raises(SystemExit):
            main(["cv", "--data", blob_files["libsvm"], "--m", ","])

    def test_malformed_m_list_is_a_usage_error(self, blob_files, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", blob_files["libsvm"], "--m", "4,x", *FAST[2:],
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid --m list '4,x'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_rows_are_the_single_m_runs(self, blob_files, tmp_path):
        # Each value of an --m list runs the same fold loop as a one-value
        # run: its error and NLL rows agree to the last digit.
        common = ["--data", blob_files["libsvm"], "--folds", "3", "--seed", "3",
                  "--batch", "20", "--max-iters", "30", "--hyper-every", "0"]

        def rows(m_list):  # m, fold, error_rate, mean_nll
            out_dir = tmp_path / m_list
            assert main(["cv", "--m", m_list, *common, "--out-dir", str(out_dir)]) == 0
            return [line.split(",")[:4] for line in _read_lines(out_dir / "cv.csv")[2:]]

        grid = rows("2,4")
        assert len(grid) == 2 * (3 + 2)
        assert grid == rows("2") + rows("4")


class TestGibbsCheck:
    def test_agreement_on_small_problem(self, blob_files, tmp_path, capsys):
        code = main([
            "gibbs-check", "--data", blob_files["small"],
            "--sweeps", "1500", "--burn-in", "300", "--max-iters", "150",
            "--seed", "0", "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement=PASS" in out
        lines = _read_lines(tmp_path / "gibbs_vi.csv")
        assert lines[0] == "# schema=pggpc.gibbs_vi.v1"
        assert len(lines) == 2 + 16

    def test_unreachable_threshold_exits_three(self, blob_files, tmp_path, capsys):
        code = main([
            "gibbs-check", "--data", blob_files["small"],
            "--sweeps", "300", "--burn-in", "100", "--max-iters", "50",
            "--corr-threshold", "1.5", "--out-dir", str(tmp_path),
        ])
        assert code == 3
        assert "agreement=FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("chain, name", [
        (["--burn-in", "5", "--thin", "0"], "thin"),
        (["--thin", "-1"], "thin"),
        (["--burn-in", "-5"], "burn_in"),
        (["--sweeps", "0", "--burn-in", "-1"], "burn_in"),
        (["--sweeps", "5", "--burn-in", "5"], "iters"),
        (["--sweeps", "2", "--burn-in", "1"], "iters"),  # one stored sample has no variance
    ])
    def test_chain_argument_out_of_range_is_one_error_line(self, chain, name, blob_files,
                                                           tmp_path, capsys, monkeypatch):
        # The whole VI fit ran before the chain's options were checked.
        fits = []
        monkeypatch.setattr(cli, "fit", lambda *a, **k: fits.append(a))
        code = main(["gibbs-check", "--data", blob_files["small"], "--max-iters", "5",
                     "--sweeps", "20", "--out-dir", str(tmp_path), *chain])
        assert code == 1
        assert _one_error_line(capsys).startswith(f"error: {name} must")
        assert fits == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amplitude, reported", [
        ("1e50", True), ("1e75", True), ("1e100", False), ("1e150", False)])
    def test_huge_amplitude_reports_or_names_the_tilt(self, amplitude, reported, blob_files,
                                                      tmp_path, capsys):
        # The chain's latent values grow as a^2.  Their variances overflowed
        # the correlations (1e50: a warning, 1e75: NaN correlations), and
        # tilts past 1e150 overflowed the sampler (1e100, 1e150: a
        # RuntimeError traceback).
        code = main(["gibbs-check", "--data", blob_files["small"], "--amplitude", amplitude,
                     "--sweeps", "20", "--burn-in", "5", "--max-iters", "3",
                     "--out-dir", str(tmp_path)])
        if reported:  # the agreement verdict, on finite correlations
            out = capsys.readouterr().out
            assert code in (0, 3) and "nan" not in out and "agreement=" in out, out
        else:
            assert code == 1
            line = _one_error_line(capsys)
            assert "Polya-Gamma tilt c must be finite and at most 1e+150" in line

    def test_chain_draws_from_the_fits_escalated_factorization(self, tmp_path, capsys,
                                                              monkeypatch):
        # Ten points, each three times: at amplitude 3e5 the fit's K_mm needs
        # extra jitter.  The chain factorized its own copy of K on a ladder
        # based at 1e-12, which gave up at 1e-6 (exit 1); it now reads the fit's.
        rng = np.random.default_rng(0)
        X = np.repeat(rng.standard_normal((10, 2)), 3, axis=0)
        path = str(tmp_path / "repeated.txt")
        save(Dataset(X, np.repeat(np.tile([1.0, -1.0], 5), 3)), path, "libsvm")
        fits, chains = [], []
        inner_fit, inner_run = cli.fit, cli.gibbs_run
        monkeypatch.setattr(cli, "fit", lambda *a: fits.append(inner_fit(*a)) or fits[-1])
        monkeypatch.setattr(cli, "gibbs_run", lambda *a: chains.append(a[0]) or inner_run(*a))
        code = main(["gibbs-check", "--data", path, "--amplitude", "3e5",
                     "--sweeps", "200", "--burn-in", "50", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code in (0, 3) and "agreement=" in out, out
        assert len(fits) == 1 and fits[0].state.mm.jitter_extra > 0.0
        assert len(chains) == 1 and chains[0] is fits[0].state.mm

    def test_oracle_cap_refuses_large_data(self, blob_files, capsys):
        code = main([
            "gibbs-check", "--data", blob_files["libsvm"], "--oracle-cap", "10",
        ])
        assert code == 1
        assert "above the Gibbs oracle cap" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # A flag removed from the CLI must not linger in the documented examples.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("pggpc ")]
    assert len(lines) >= 5
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the options read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_parsed_option_is_read(blob_files, trained, tmp_path, monkeypatch):
    # A flag that a command parses but never reads changes nothing; --config
    # is exempt, as it is consumed before parsing.
    build = cli._build_parser
    parsed = []

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(argv):
            ns = _ReadRecorder()
            ns._reads = set()
            ns = parse(argv, namespace=ns)
            ns._reads.clear()  # argparse's own reads while parsing do not count
            parsed.append(ns)
            return ns

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "_build_parser", recording_parser)
    small, out = blob_files["small"], str(tmp_path)
    runs = {
        "train": ["--data", small, *FAST],
        "predict": ["--data", small, "--checkpoint", trained],
        "evaluate": ["--data", small, "--checkpoint", trained],
        "cv": ["--data", small, "--folds", "2", *FAST],
        "gibbs-check": ["--data", small, "--sweeps", "20", "--burn-in", "5", "--max-iters", "2"],
    }
    assert set(runs) == set(cli._COMMANDS)
    unread = {}
    for command, flags in runs.items():
        assert main([command, *flags, "--out-dir", out]) in (0, 3), command  # 3: gibbs FAIL
        ns = parsed[-1]
        names = {k for k in vars(ns) if not k.startswith("_")} - {"config"}
        if names - ns._reads:
            unread[command] = sorted(names - ns._reads)
    assert unread == {}


def test_console_script_is_installed():
    proc = subprocess.run(["pggpc", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in cli._COMMANDS:
        assert name in proc.stdout
