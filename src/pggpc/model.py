"""Model state: dataset container, variational state, initialization, checkpoints.

The variational posterior over inducing values u is the Gaussian
q(u) = N(mu, Sigma), stored canonically in natural parameters
eta1 = Sigma^{-1} mu and eta2 = -1/2 Sigma^{-1}; (mu, Sigma) and log|Sigma|
are derived from one Cholesky factor of the precision after every
natural-space update.  The state also holds the K_mm factorization; the
Polya-Gamma tilts, per-batch values, are not state.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky

from .kernel import _FAR, HYPER_NAMES, FactorizationError, GramBundle, KernelParams
from .kernel import build_gram, chol_inverse

__all__ = [
    "Dataset",
    "VariationalState",
    "kmeanspp_init",
    "init_state",
    "save_checkpoint",
    "load_checkpoint",
    "natural_to_moments",
]

CHECKPOINT_SCHEMA = "pggpc.checkpoint.v1"
_LLOYD_ITERS = 10
# kmeanspp_init reads at most max(_SEED_ROWS_MIN, _SEED_ROWS_PER_CENTER * m)
# rows: about 20 per Lloyd mean, and never fewer than 2000, so that small
# datasets keep the full-data routine and their Z.
_SEED_ROWS_MIN = 2000
_SEED_ROWS_PER_CENTER = 20


@dataclass(frozen=True)
class Dataset:
    """A binary classification dataset.

    Attributes
    ----------
    X : ndarray, shape (n, d)
        Feature matrix, finite float64.
    y : ndarray, shape (n,)
        Labels, exactly -1.0 or +1.0.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[1] == 0:
            raise ValueError("X has no feature columns")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain NaN or Inf")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def subset(self, idx):
        """Dataset restricted to the given row indices."""
        return Dataset(self.X[idx], self.y[idx])


def natural_to_moments(eta1, eta2):
    """(mu, Sigma, log|Sigma|) from natural parameters; requires -2 eta2 SPD.

    One Cholesky factor L_P of the precision -2 eta2 gives both Sigma (by
    ``potri``) and log|Sigma| = -2 sum log diag L_P.
    """
    prec = -2.0 * eta2
    L = cholesky(0.5 * (prec + prec.T), lower=True)
    Sigma = chol_inverse(L)
    return Sigma @ eta1, Sigma, -2.0 * float(np.sum(np.log(np.diag(L))))


@dataclass(frozen=True)
class VariationalState:
    """Sparse variational posterior state: q(u), Z, the kernel and K_mm (no tilts).

    Attributes
    ----------
    eta1 : ndarray, shape (m,)
        First natural parameter Sigma^{-1} mu (canonical storage).
    eta2 : ndarray, shape (m, m)
        Second natural parameter -1/2 Sigma^{-1}; -2 eta2 is always SPD.
    mu : ndarray, shape (m,)
        Derived posterior mean of the inducing values.
    Sigma : ndarray, shape (m, m)
        Derived posterior covariance.
    Z : ndarray, shape (m, d)
        Inducing inputs (fixed during training).
    params : KernelParams
    mm : GramBundle
        The bundle for no rows at (Z, params), the one K_mm factorization; the
        class is frozen, so it changes with ``params``, in one ``replace``.

    ``logdet_Sigma``, log|Sigma|, is not a field.  ``from_natural``,
    ``with_natural`` and ``init_state`` fill it from the factor that gave
    Sigma; any other instance, such as one that ``dataclasses.replace``
    builds with a new Sigma, computes it from ``cholesky(Sigma)`` when first
    read, so it always belongs to the instance's own Sigma.
    """

    eta1: np.ndarray
    eta2: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    Z: np.ndarray
    params: KernelParams
    mm: GramBundle

    @property
    def m(self):
        return self.Z.shape[0]

    @cached_property
    def logdet_Sigma(self):
        """log|Sigma|."""
        return 2.0 * float(np.sum(np.log(np.diag(cholesky(self.Sigma, lower=True)))))

    def _with_logdet(self, logdet_Sigma):
        object.__setattr__(self, "logdet_Sigma", logdet_Sigma)
        return self

    @classmethod
    def from_natural(cls, eta1, eta2, Z, params):
        mm = build_gram(np.empty((0, Z.shape[1])), Z, params)
        mu, Sigma, logdet = natural_to_moments(eta1, eta2)
        return cls(eta1, eta2, mu, Sigma, Z, params, mm)._with_logdet(logdet)

    def with_natural(self, eta1, eta2):
        """New state at the given natural parameters (moments refreshed, ``mm`` kept)."""
        mu, Sigma, logdet = natural_to_moments(eta1, eta2)
        return replace(self, eta1=eta1, eta2=eta2, mu=mu, Sigma=Sigma)._with_logdet(logdet)


def kmeanspp_init(X, m, rng):
    """Inducing inputs from k-means++ seeding plus a fixed Lloyd budget.

    Seeding and the Lloyd steps read at most rows = max(2000, 20 m) rows of
    X: when n > rows, ``rng.choice(n, rows, replace=False)`` draws them
    first, so set-up costs O(m rows d) time and memory whatever n is.  At
    n <= rows every row is used and no sample is drawn.  The rows read are
    clamped to +/- 1e150, as the kernel clamps its inputs, so no squared
    distance overflows; data within that range is read unchanged.

    Parameters
    ----------
    X : ndarray, shape (n, d)
    m : int
        Number of centers, 1 <= m <= n.
    rng : numpy.random.Generator

    Returns
    -------
    ndarray, shape (m, d)
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rows = max(_SEED_ROWS_MIN, _SEED_ROWS_PER_CENTER * m)
    if n > rows:
        X = X[rng.choice(n, rows, replace=False)]
        n = rows
    X = np.clip(X, -_FAR, _FAR)  # as the kernel does, so no squared distance overflows

    centers = np.empty((m, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total > 0.0:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = X[rng.integers(n)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))

    xx = np.sum(X * X, axis=1)[:, None]
    d2_all = np.empty((n, m))  # the one n x m buffer of every Lloyd step
    for _ in range(_LLOYD_ITERS):
        np.matmul(X, centers.T, out=d2_all)
        d2_all *= -2.0
        d2_all += xx
        d2_all += np.sum(centers * centers, axis=1)[None, :]
        assign = np.argmin(d2_all, axis=1)
        counts = np.bincount(assign, minlength=m)
        sums = np.stack([np.bincount(assign, weights=col, minlength=m) for col in X.T], axis=1)
        filled = counts > 0  # an empty cluster keeps its center
        centers[filled] = sums[filled] / counts[filled, None]
    return centers


def init_state(Z, params):
    """Prior-initialized variational state.

    Factorizes K_mm at (Z, params) and sets eta2 = -1/2 K_mm^{-1} and
    eta1 = 0, so that (mu, Sigma) is the GP prior (0, K_mm) over the
    inducing values, and log|Sigma| is ``mm.logdet_Kmm``.
    """
    m = Z.shape[0]
    mm = build_gram(np.empty((0, Z.shape[1])), Z, params)
    return VariationalState(
        eta1=np.zeros(m), eta2=-0.5 * mm.Kmm_inv, mu=np.zeros(m), Sigma=mm.K_mm.copy(),
        Z=Z, params=params, mm=mm,
    )._with_logdet(mm.logdet_Kmm)


def _encode_array(arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def save_checkpoint(path, state, seed, preprocess=None):
    """Write a versioned JSON checkpoint (bit-exact array round-trip).

    Stores the inducing inputs, kernel parameters, natural parameters, and
    the training seed; optionally a feature preprocessing block (per-column
    means/stds) so predictions can be made from raw inputs.  Array payloads
    are base64-encoded little-endian float64, so save/load/save reproduces
    the file byte for byte.
    """
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "seed": int(seed),
        "params": asdict(state.params),
        "arrays": {
            "Z": _encode_array(state.Z),
            "eta1": _encode_array(state.eta1),
            "eta2": _encode_array(state.eta2),
        },
    }
    if preprocess is not None:
        doc["preprocess"] = {
            "means": _encode_array(preprocess["means"]),
            "stds": _encode_array(preprocess["stds"]),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _field_error(path, field, why):
    return ValueError(f"{path}: checkpoint field {field!r} {why}")


def _checked_array(path, doc, field, shape=None):
    """Decode the finite array at ``block.name`` of the given shape, or raise ValueError."""
    block, name = field.split(".")
    try:
        enc = doc[block][name]
        arr = np.frombuffer(base64.b64decode(enc["data"]), dtype="<f8").reshape(enc["shape"])
    except (KeyError, TypeError, ValueError):  # binascii.Error is a ValueError
        raise _field_error(path, field, "is missing or malformed") from None
    if shape is not None and arr.shape != shape:
        raise _field_error(path, field, f"has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise _field_error(path, field, "holds NaN or Inf")
    return arr.copy()


def load_checkpoint(path):
    """Read and check a checkpoint written by :func:`save_checkpoint`.

    Returns
    -------
    (VariationalState, int, dict or None)
        The restored state (moments refreshed from the natural parameters,
        K_mm factorized), the stored seed, and the preprocessing block (arrays
        under "means"/"stds") when present.

    Raises
    ------
    ValueError
        Naming the file and the field that is missing, misnamed, of the wrong
        type or shape (Z (m, d), eta1 (m,), eta2 (m, m), means/stds (d,)),
        non-finite, or (eta2) not negative definite; or naming arrays.Z and
        params when K_mm does not factorize at them.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: checkpoint is not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint is not a JSON object")
    if doc.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"{path}: unrecognized checkpoint schema: {doc.get('schema')!r}")
    if type(doc.get("seed")) is not int:
        raise _field_error(path, "seed", "must be an integer")
    raw = doc.get("params")
    if not isinstance(raw, dict) or sorted(raw) != sorted(HYPER_NAMES):
        raise _field_error(path, "params", f"must hold exactly {list(HYPER_NAMES)}")
    for name in HYPER_NAMES:
        if type(raw[name]) not in (int, float):
            raise _field_error(path, f"params.{name}", "must be a finite number")
    try:
        params = KernelParams(**raw)
    except ValueError as exc:  # it names the field
        raise ValueError(f"{path}: checkpoint field params.{exc}") from None
    Z = _checked_array(path, doc, "arrays.Z")
    if Z.ndim != 2 or 0 in Z.shape:
        raise _field_error(path, "arrays.Z", f"must have shape (m, d), got {Z.shape}")
    m, d = Z.shape
    eta1 = _checked_array(path, doc, "arrays.eta1", (m,))
    eta2 = _checked_array(path, doc, "arrays.eta2", (m, m))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            state = VariationalState.from_natural(eta1, eta2, Z, params)
    except (np.linalg.LinAlgError, ValueError):  # ValueError: -2 eta2 overflows
        raise _field_error(path, "arrays.eta2", "is not negative definite") from None
    except FactorizationError:
        raise _field_error(path, "arrays.Z", "and params give an unfactorizable K_mm") from None
    if not (np.all(np.isfinite(state.mu)) and np.all(np.isfinite(state.Sigma))):
        raise _field_error(path, "arrays", "eta1 and eta2 give a non-finite mean or covariance")
    preprocess = None
    if "preprocess" in doc:
        preprocess = {k: _checked_array(path, doc, f"preprocess.{k}", (d,))
                      for k in ("means", "stds")}
        if np.any(preprocess["stds"] <= 0.0):
            raise _field_error(path, "preprocess.stds", "must be positive")
    return state, doc["seed"], preprocess
