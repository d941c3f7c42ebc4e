"""Dataset ingestion, preprocessing, CV splitting, and mini-batch sampling.

Supported on-disk formats
-------------------------
LibSVM : one record per line, ``<label> <index>:<value> ...`` with 1-based,
    strictly increasing-free (any order) indices; omitted indices are zero.
CSV : comma-separated, optionally with a single header row (detected when a
    field of the first row does not parse as a number); the label column
    defaults to column 0 and is selectable.

Accepted label encodings are {-1,+1}, {0,1} (0 maps to -1), and {1,2}
(1 maps to -1); anything else is rejected as non-binary.
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass

import numpy as np

from .kernel import _FAR
from .model import Dataset

__all__ = [
    "load",
    "load_features",
    "save",
    "standardize",
    "Standardizer",
    "kfold",
    "minibatch_iter",
    "MiniBatch",
    "canonical_order",
]


@dataclass(frozen=True)
class MiniBatch:
    """A without-replacement mini-batch and its ELBO rescaling factor.

    Attributes
    ----------
    indices : ndarray of int
        Distinct row indices into the training set.
    scale : float
        Exactly n / |S|, the factor that makes batch sums unbiased for
        full-data sums.
    """

    indices: np.ndarray
    scale: float


def minibatch_iter(n, s, seed):
    """Endless stream of mini-batches, reshuffled each epoch.

    Within an epoch the batches partition {0..n-1} (sampling without
    replacement); the final batch of an epoch may be short and carries its
    own exact scale factor.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= batch size <= n, got s={s}, n={n}")
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(n)
        for start in range(0, n, s):
            chunk = perm[start : start + s]
            yield MiniBatch(indices=chunk, scale=n / chunk.size)


def kfold(n, k, seed):
    """k-fold split: seeded permutation, then round-robin fold ids.

    Returns the k (train_idx, test_idx) pairs, each in ascending order.
    Fold sizes differ by at most one, and the split is a deterministic
    function of (n, k, seed).  The folds are whole: a caller that scores
    part of a test fold slices it, as ``pggpc cv`` does.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold = np.empty(n, dtype=int)
    fold[perm] = np.arange(n) % k
    return [(np.flatnonzero(fold != i), np.flatnonzero(fold == i)) for i in range(k)]


def canonical_order(dataset):
    """Rows sorted lexicographically by features, then label.

    Applying this before :func:`kfold` makes fold membership invariant to
    the on-disk record order.
    """
    keys = tuple(dataset.X[:, j] for j in range(dataset.d - 1, -1, -1))
    order = np.lexsort((dataset.y,) + keys)
    return Dataset(dataset.X[order], dataset.y[order])


# Standardized values are clamped to +/- _FAR spreads (no kernel tells a point
# that far out from one farther still), and a column reaching _FAR in magnitude
# is divided by its peak before its sum of squares is taken.
@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on training data.

    Columns with zero spread keep a sentinel std of 1 so they map to zeros
    rather than NaN.
    """

    means: np.ndarray
    stds: np.ndarray

    def apply(self, X):
        """(X - means) / stds clamped to +/- ``_FAR``; halving (exact) keeps X - means finite."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        with np.errstate(over="ignore"):  # the clamp catches it
            out = (0.5 * X - 0.5 * self.means) / (0.5 * self.stds)
        return np.clip(out, -_FAR, _FAR, out=out)

    def apply_dataset(self, dataset):
        return Dataset(self.apply(dataset.X), dataset.y)


def standardize(dataset):
    """Column-wise standardization; returns the new dataset and the transform."""
    if dataset.n < 2:
        raise ValueError("standardization needs at least 2 records")
    peak = np.maximum(dataset.X.max(axis=0), -dataset.X.min(axis=0))
    scale = np.where(peak >= _FAR, peak, 1.0)
    X = dataset.X / scale if np.any(scale > 1.0) else dataset.X
    means = X.mean(axis=0) * scale
    stds = X.std(axis=0) * scale
    stds = np.where(stds > 0.0, stds, 1.0)
    scaler = Standardizer(means=means, stds=stds)
    return scaler.apply_dataset(dataset), scaler


_LABEL_MAPS = {
    (-1.0, 1.0): {-1.0: -1.0, 1.0: 1.0},
    (0.0, 1.0): {0.0: -1.0, 1.0: 1.0},
    (1.0, 2.0): {1.0: -1.0, 2.0: 1.0},
}


def _map_labels(raw, path):
    uniq = tuple(sorted(set(raw)))
    mapping = _LABEL_MAPS.get(uniq)
    if mapping is None:
        raise ValueError(f"{path}: non-binary labels {list(uniq)}")
    return np.array([mapping[v] for v in raw])


def _parse_libsvm(path, n_features):
    labels = []
    rows = []
    max_idx = 0
    with open(path) as fh:
        for lineno, rawline in enumerate(fh, 1):
            line = rawline.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                labels.append(float(tokens[0]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed label field {tokens[0]!r}"
                ) from None
            entries = {}
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: malformed entry {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed entry {tok!r}") from None
                if idx < 1:
                    raise ValueError(f"{path}:{lineno}: index {idx} is not 1-based")
                entries[idx] = val
            rows.append(entries)
            if entries:
                max_idx = max(max_idx, max(entries))
    d = n_features if n_features is not None else max(max_idx, 1)
    try:
        X = np.zeros((len(rows), d))
    except (MemoryError, ValueError):  # ValueError: "array is too big"
        raise ValueError(
            f"{path}: feature index {d} is too large: {len(rows)} rows of {d} "
            "features do not fit in memory"
        ) from None
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            if idx > d:
                raise ValueError(f"{path}: feature index {idx} exceeds n_features={d}")
            X[i, idx - 1] = val
    return X, labels


def _parse_csv(path, label_col):
    data_rows = []
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        for lineno, row in enumerate(reader, 1):
            if not row or all(not f.strip() for f in row):
                continue
            try:
                data_rows.append(([float(f) for f in row], lineno))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                bad = next(f for f in row if not _is_number(f))
                raise ValueError(f"{path}:{lineno}: malformed field {bad!r}") from None
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    width = len(data_rows[0][0])
    for vals, lineno in data_rows:
        if len(vals) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} fields, found {len(vals)}"
            )
    table = np.array([vals for vals, _ in data_rows])
    if label_col is None:
        return table, None
    col = label_col if label_col >= 0 else width + label_col
    if not 0 <= col < width:
        raise ValueError(f"{path}: label column {label_col} out of range for width {width}")
    if width == 1:
        raise ValueError(f"{path}: no feature column besides the label column")
    labels = list(table[:, col])
    X = np.delete(table, col, axis=1)
    return X, labels


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def load(path, format, label_col=0, n_features=None):
    """Read a labeled dataset.

    Parameters
    ----------
    path : str
    format : {"libsvm", "csv"}
    label_col : int, optional
        Label column for CSV input (negative counts from the end).
    n_features : int, optional
        Force the feature dimension for LibSVM input (otherwise inferred
        from the largest index present).

    Returns
    -------
    Dataset
        With labels mapped onto {-1, +1}.
    """
    X, labels = _parse(path, format, label_col, n_features)
    return Dataset(X, _map_labels(labels, path))


def load_features(path, format, n_features=None):
    """Read an unlabeled feature matrix (CSV rows of numbers, or LibSVM
    records whose label field is ignored)."""
    return _parse(path, format, None, n_features)[0]


def _parse(path, format, label_col, n_features):
    """(X, labels) of the file; CSV with ``label_col=None`` has no label column."""
    if format == "libsvm":
        return _parse_libsvm(path, n_features)
    if format == "csv":
        return _parse_csv(path, label_col)
    raise ValueError(f"unknown format {format!r} (expected 'libsvm' or 'csv')")


def save(dataset, path, format):
    """Write a dataset so that :func:`load` reproduces it bit-exactly.

    Floats are written with shortest round-trip repr.  LibSVM output always
    writes the final column explicitly so the dimension survives reloading.
    """
    if format == "csv":
        with open(path, "w") as fh:
            for xi, yi in zip(dataset.X, dataset.y):
                fh.write(",".join([repr(int(yi))] + [repr(float(v)) for v in xi]))
                fh.write("\n")
    elif format == "libsvm":
        d = dataset.d
        with open(path, "w") as fh:
            for xi, yi in zip(dataset.X, dataset.y):
                parts = [f"{int(yi):+d}"]
                for j, v in enumerate(xi, start=1):
                    if v != 0.0 or j == d:
                        parts.append(f"{j}:{float(v)!r}")
                fh.write(" ".join(parts))
                fh.write("\n")
    else:
        raise ValueError(f"unknown format {format!r} (expected 'libsvm' or 'csv')")
