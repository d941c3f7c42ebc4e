"""Property tests: the command line never ends in a traceback.

Hypothesis writes mutated LIBSVM and CSV data files (any finite float64,
subnormals and magnitudes near 1.8e308 included) and mutated checkpoints,
and runs them through ``main`` for ``train`` (with and without
standardization), ``predict`` and ``evaluate`` on tiny budgets.  Every run
must exit 0, or exit 1 with exactly one ``error:`` line.  A RuntimeWarning
(overflow, invalid value, division by zero) is raised as an error inside
each run, so it fails the property as a traceback would.
"""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pggpc.cli import main
from pggpc.data import save
from pggpc.model import Dataset

FUZZ = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
TINY = ["--max-iters", "2", "--m", "4", "--batch", "8", "--hyper-every", "1"]

# Any finite double, weighted towards the edges of the range.
_EXTREME = st.sampled_from([
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 1e200, -1e154,
    2.2250738585072014e-308, 5e-324, -5e-324, 1e-310, 0.0, -0.0,
])
VALUES = st.one_of(
    st.floats(-3.0, 3.0),
    _EXTREME,
    st.floats(allow_nan=False, allow_infinity=False),
)


def _run(argv, capsys):
    """main(argv) with RuntimeWarning as an error; returns (exit code, stderr)."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    err = capsys.readouterr().err
    if code == 0:
        return code, err
    lines = err.splitlines()
    assert code == 1, (code, err)
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return code, err


@st.composite
def tables(draw):
    """(X, y) with 6 to 30 rows, 1 to 3 columns, both labels present, some extreme values."""
    n = draw(st.integers(6, 30))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    for _ in range(draw(st.integers(0, 6))):
        X[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(VALUES)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(VALUES)  # a constant (maybe extreme) column
    y = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    return X, y


def _mutate_lines(lines, draw):
    """A few textual edits: drop, duplicate, garble, relabel or blank a line."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "dup", "garble", "label", "empty"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "garble":
            lines[i] += draw(st.sampled_from([" 0:1", " 2:", " x", ",", " 9999999999:1", ":"]))
        elif kind == "label":
            _, sep, tail = lines[i].partition(draw(st.sampled_from([" ", ","])))
            lines[i] = draw(st.sampled_from(["0", "2", "nan", "inf", "+1", "-1"])) + sep + tail
        else:
            lines[i] = ""
    return lines


@st.composite
def data_files(draw):
    """(format, text) of a dataset file."""
    X, y = draw(tables())
    fmt = draw(st.sampled_from(["libsvm", "csv"]))
    if fmt == "csv":
        lines = [",".join([repr(int(yi))] + [repr(float(v)) for v in xi]) for xi, yi in zip(X, y)]
    else:
        lines = [" ".join([f"{int(yi):+d}"] + [f"{j}:{float(v)!r}" for j, v in enumerate(xi, 1)
                                                if v != 0.0 or j == X.shape[1]])
                 for xi, yi in zip(X, y)]
    if draw(st.booleans()):
        lines = _mutate_lines(lines, draw)
    return fmt, "\n".join(lines) + "\n"


def _write(tmp_path, fmt, text, name="data"):
    path = tmp_path / f"{name}.{'csv' if fmt == 'csv' else 'txt'}"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A clean 2-feature LIBSVM file and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("clean")
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-1.0, 1.0, (12, 2)), rng.normal(1.0, 1.0, (12, 2))])
    data = str(root / "clean.txt")
    save(Dataset(X, np.repeat([-1.0, 1.0], 12)), data, "libsvm")
    assert main(["train", "--data", data, "--out-dir", str(root), *TINY]) == 0
    return {"data": data, "checkpoint": str(root / "checkpoint.json")}


@FUZZ
@given(data=data_files())
def test_train_predict_evaluate_on_mutated_data(data, clean, tmp_path_factory, capsys):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    path = _write(tmp_path, *data)
    checkpoints = [clean["checkpoint"]]
    for name, flags in (("standardized", []), ("raw", ["--no-standardize"])):
        out_dir = tmp_path / name
        code, _ = _run(["train", "--data", path, "--out-dir", str(out_dir), *TINY, *flags],
                       capsys)
        if code == 0:
            checkpoints.append(str(out_dir / "checkpoint.json"))
    for checkpoint in checkpoints:
        for command in ("predict", "evaluate"):
            _run([command, "--data", path, "--checkpoint", checkpoint,
                  "--out-dir", str(tmp_path)], capsys)


def _leaves(doc, path=()):
    """Paths to every value of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield path + (i,)
            yield from _leaves(value, path + (i,))


JSON_VALUES = st.one_of(
    VALUES, st.integers(-2**70, 2**70), st.none(), st.booleans(), st.text(max_size=5),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.none(), max_size=2),
)


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.booleans(), JSON_VALUES),
                      min_size=1, max_size=3),
       array_edit=st.one_of(st.none(), st.tuples(st.sampled_from(["Z", "eta1", "eta2"]),
                                                 st.integers(0, 3), VALUES)))
def test_predict_and_evaluate_on_mutated_checkpoint(edits, array_edit, clean, tmp_path_factory,
                                                     capsys):
    with open(clean["checkpoint"]) as fh:
        doc = json.load(fh)
    if array_edit is not None:  # one finite entry of a stored array changed
        name, index, value = array_edit
        block = doc["arrays"][name]
        arr = np.frombuffer(base64.b64decode(block["data"]), dtype="<f8").copy()
        arr[index % arr.size] = value
        block["data"] = base64.b64encode(arr.tobytes()).decode("ascii")
    for pick, delete, value in edits:
        paths = list(_leaves(doc))
        *parent_path, key = paths[pick % len(paths)]
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if delete and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = value
    tmp_path = tmp_path_factory.mktemp("ckpt")
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    for command in ("predict", "evaluate"):
        _run([command, "--data", clean["data"], "--checkpoint", str(checkpoint),
              "--out-dir", str(tmp_path)], capsys)
