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

import numpy as np
from scipy.linalg import lapack

from .kernel import _FAR, HYPER_NAMES, FactorizationError, GramBundle, KernelParams
from .kernel import chol_inverse, factorize

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
    """(mu, Sigma, log|Sigma|) from natural parameters; -2 eta2 must be SPD.

    eta2 must also be exactly symmetric, as every step and checkpoint keeps
    it: LAPACK ``potrf`` factorizes the fresh buffer -2 eta2 in place and
    reads one triangle of it.  Its factor L_P gives both Sigma (by
    :func:`~pggpc.kernel.chol_inverse`) and log|Sigma| = -2 sum log diag L_P.

    Raises
    ------
    ValueError
        If -2 eta2 holds NaN or Inf, as ``scipy.linalg.cholesky`` says it.
    numpy.linalg.LinAlgError
        If -2 eta2 is not positive definite.
    """
    prec = -2.0 * eta2
    if not np.isfinite(prec).all():
        raise ValueError("array must not contain infs or NaNs")
    # prec is symmetric, so its transpose is the same matrix in Fortran order,
    # which potrf overwrites without a copy.
    L, info = lapack.dpotrf(prec.T, lower=1, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the precision is not positive definite")
    Sigma = chol_inverse(L)
    return Sigma @ eta1, Sigma, -2.0 * float(np.sum(np.log(np.diag(L))))


@dataclass(frozen=True)
class VariationalState:
    """Sparse variational posterior state: q(u) and the K_mm factorization (no tilts).

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
    logdet_Sigma : float
        log|Sigma|, from the precision's factor that gave Sigma.
    mm : GramBundle
        The one K_mm factorization, whose inducing inputs ``Z`` (fixed during
        training) and kernel ``params`` the state reads as its own.
    """

    eta1: np.ndarray
    eta2: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    logdet_Sigma: float
    mm: GramBundle

    @property
    def Z(self):
        return self.mm.Z

    @property
    def params(self):
        return self.mm.params

    @property
    def m(self):
        return self.Z.shape[0]

    @classmethod
    def from_natural(cls, eta1, eta2, Z, params):
        return cls(eta1, eta2, *natural_to_moments(eta1, eta2), factorize(Z, params))

    def with_natural(self, eta1, eta2):
        """New state at the given natural parameters (moments refreshed, ``mm`` kept)."""
        mu, Sigma, logdet = natural_to_moments(eta1, eta2)
        return replace(self, eta1=eta1, eta2=eta2, mu=mu, Sigma=Sigma, logdet_Sigma=logdet)


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

    # Each center is a row of aug = [z, -||z||^2 / 2], so that one GEMM with
    # [x, 1] gives every Lloyd score x.z - ||z||^2 / 2; the nearest center
    # has the largest, since ||x - z||^2 adds ||x||^2, the same for every z.
    d = X.shape[1]
    aug = np.empty((m, d + 1))
    centers = aug[:, :d]
    XT = X.T.copy()  # features as rows: the passes below run along n
    centers[0] = X[rng.integers(n)]
    diff = XT - centers[0][:, None]  # the one n x d buffer of the seeding
    d2 = np.einsum("ji,ji->i", diff, diff)
    d2_j, cdf = np.empty(n), np.empty(n)
    for j in range(1, m):
        total = d2.sum()
        if total > 0.0:
            # rng.choice(n, p=d2 / total)'s own draw, one double from rng,
            # without its O(n) checks of p.
            np.divide(d2, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            centers[j] = X[cdf.searchsorted(rng.random(), side="right")]
        else:
            centers[j] = X[rng.integers(n)]
        np.subtract(XT, centers[j][:, None], out=diff)
        np.minimum(d2, np.einsum("ji,ji->i", diff, diff, out=d2_j), out=d2)

    X1 = np.hstack([X, np.ones((n, 1))])
    score = np.empty((n, m))  # the one n x m buffer of every Lloyd step
    for _ in range(_LLOYD_ITERS):
        aug[:, d] = -0.5 * np.einsum("ij,ij->i", centers, centers)
        np.matmul(X1, aug.T, out=score)
        assign = np.argmax(score, axis=1)
        counts = np.bincount(assign, minlength=m)
        sums = np.stack([np.bincount(assign, weights=col, minlength=m) for col in XT], axis=1)
        filled = counts > 0  # an empty cluster keeps its center
        centers[filled] = sums[filled] / counts[filled, None]
    return centers.copy()


def init_state(Z, params):
    """Prior-initialized variational state.

    Factorizes K_mm at (Z, params) and sets eta2 = -1/2 K_mm^{-1} and
    eta1 = 0, so that (mu, Sigma) is the GP prior (0, K_mm) over the
    inducing values, and log|Sigma| is ``mm.logdet_Kmm``.
    """
    m = Z.shape[0]
    mm = factorize(Z, params)
    return VariationalState(
        eta1=np.zeros(m), eta2=-0.5 * mm.Kmm_inv, mu=np.zeros(m), Sigma=mm.K_mm.copy(),
        logdet_Sigma=mm.logdet_Kmm, mm=mm,
    )


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
        non-finite, or (eta2) not exactly symmetric or not negative definite;
        or naming arrays.Z and params when K_mm does not factorize at them.
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
    if not np.array_equal(eta2, eta2.T):  # the moments read one triangle
        raise _field_error(path, "arrays.eta2", "is not exactly symmetric")
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
