"""Squared-exponential kernel, Gram assembly, Cholesky utilities, gradients.

The kernel is k(x, x') = a^2 exp(-||x - x'||^2 / (2 l^2)) plus an additive
white-noise (jitter) term that contributes only when x and x' are the same
point by index.  Hyperparameters are carried in log space so optimizers can
work unconstrained.  Distances are taken about the inducing inputs' centre.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.linalg import cho_solve, cholesky, lapack

__all__ = [
    "KernelParams",
    "GramBundle",
    "GramRows",
    "FactorizationError",
    "HYPER_NAMES",
    "DEFAULT_TEXT",
    "factorize",
    "build_gram",
    "kern_grad",
    "chol_with_escalation",
    "chol_inverse",
]

_DEFAULT_AMPLITUDE = 1.0
_DEFAULT_JITTER = 1e-6
_LOG_LIMITS = (350.0, 350.0, 700.0)  # l^2, a^2 and jitter within e^+-700
# Inputs are clamped to +/- _FAR (lengthscales, in the kernel), so no square
# of a coordinate or of a difference of two overflows.
_FAR = 1e150
# How KernelParams.default fills each unset value, as help text shows it.
DEFAULT_TEXT = {"lengthscale": "sqrt(d)", "amplitude": f"{_DEFAULT_AMPLITUDE:g}",
                "jitter": f"{_DEFAULT_JITTER:g}"}


class FactorizationError(RuntimeError):
    """Cholesky factorization failed even after maximum jitter escalation."""


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters in log space.

    Attributes
    ----------
    log_lengthscale : float
        Log of the common lengthscale l (shared across input dimensions); its
        default depends on d, so only :meth:`default` gives one.
    log_amplitude : float
        Log of the signal amplitude a (the kernel carries a^2).
    log_jitter : float
        Log of the additive diagonal noise variance.
    """

    log_lengthscale: float
    log_amplitude: float = float(np.log(_DEFAULT_AMPLITUDE))
    log_jitter: float = float(np.log(_DEFAULT_JITTER))

    def __post_init__(self):
        for f, value, limit in zip(fields(self), astuple(self), _LOG_LIMITS):
            if not -limit <= value <= limit:
                raise ValueError(f"{f.name} must be finite and at most {limit:g} in magnitude, "
                                 f"got {value}")

    @property
    def lengthscale(self):
        return float(np.exp(self.log_lengthscale))

    @property
    def amplitude(self):
        return float(np.exp(self.log_amplitude))

    @property
    def jitter(self):
        return float(np.exp(self.log_jitter))

    def as_array(self):
        """Hyperparameters as the vector (log l, log a, log jitter)."""
        return np.array(astuple(self), dtype=float)

    @classmethod
    def default(cls, d, lengthscale=None, amplitude=None, jitter=None):
        """Parameters for d inputs; unset values are filled as ``DEFAULT_TEXT`` says."""
        for name, value in (("lengthscale", lengthscale), ("amplitude", amplitude),
                            ("jitter", jitter)):
            if value is not None and not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        return cls(
            0.5 * float(np.log(d)) if lengthscale is None else float(np.log(lengthscale)),
            cls.log_amplitude if amplitude is None else float(np.log(amplitude)),
            cls.log_jitter if jitter is None else float(np.log(jitter)),
        )

    @classmethod
    def from_array(cls, vec):
        return cls(*(float(v) for v in np.asarray(vec, dtype=float)))


HYPER_NAMES = tuple(f.name for f in fields(KernelParams))


class _Inducing:
    """Inducing inputs as the kernel reads them at lengthscale l.

    Z in units of l, clamped to +/- ``_FAR``, less c = trunc(mean of its
    rows), and half the squared norm of each row.  :meth:`rows` takes any
    rows X the same way, so that a squared norm holds a row's spread about
    Z, not its offset from the origin, and far inputs keep their digits;
    distances do not move, and at c = 0 (standardized inputs) nothing does.
    A K_mm factorization keeps it (``GramBundle.inducing``): the Gram
    rows, gradient and prediction take their distances from it alone.
    """

    __slots__ = ("l", "c", "Z", "half_sq")

    def __init__(self, Z, l):
        far = _FAR * l
        Z = np.clip(np.atleast_2d(np.asarray(Z, dtype=float)), -far, far) / l
        self.l = l
        self.c = np.trunc(Z.mean(axis=0))
        self.Z = np.clip(Z - self.c, -_FAR, _FAR)
        self.half_sq = 0.5 * np.sum(self.Z * self.Z, axis=1)

    def rows(self, X):
        """The rows X in the same units and about the same centre as ``Z``."""
        far = _FAR * self.l
        X = np.clip(np.atleast_2d(np.asarray(X, dtype=float)), -far, far) / self.l
        return np.clip(X - self.c, -_FAR, _FAR)

    def neg_half_sq(self, X):
        """-||x - z||^2 / 2, clamped at 0, for rows X taken by :meth:`rows`, in one buffer."""
        D = X @ self.Z.T
        D -= 0.5 * np.sum(X * X, axis=1)[:, None]
        D -= self.half_sq
        return np.minimum(D, 0.0, out=D)


def _cross(X, inducing, params):
    """The kernel matrix between the rows X, taken by ``inducing.rows``, and its Z,
    without jitter (which :func:`factorize` adds to K_mm's diagonal)."""
    K = inducing.neg_half_sq(X)
    np.exp(K, out=K)
    K *= params.amplitude**2
    return K


def chol_with_escalation(K, base_jitter):
    """Lower Cholesky factor of K, escalating added jitter on failure.

    The matrix is attempted as given, then with base_jitter * 10**k added to
    the diagonal of a copy for k = 1..6; no copy is made when K factorizes.
    Returns (L, extra) where ``extra`` is the additional diagonal that was
    required (0.0 in the usual case).

    Raises
    ------
    FactorizationError
        If the factorization still fails at 10^6 times the base jitter.
    """
    shifted = K
    for extra in [0.0] + [base_jitter * 10.0**k for k in range(1, 7)]:
        if extra:
            shifted = K.copy()
            shifted[np.diag_indices_from(shifted)] += extra
        try:
            return cholesky(shifted, lower=True), extra
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "Cholesky failed after escalating jitter to 1e6x the configured value; "
        "inducing inputs or hyperparameters are degenerate"
    )


def chol_inverse(L):
    """A^{-1} from the lower Cholesky factor L of an SPD matrix A, exactly symmetric.

    LAPACK ``potri`` fills the lower triangle of the inverse in a Fortran-
    ordered copy; each column's upper part is copied from its row in place,
    and the C-ordered transpose, the same matrix, is returned.
    """
    inv, info = lapack.dpotri(L, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"potri failed (info={info})")
    for j in range(1, inv.shape[0]):
        inv[:j, j] = inv[j, :j]
    return inv.T


@dataclass(frozen=True, eq=False)
class GramBundle:
    """The K_mm factorization at (Z, params), shared by inference and prediction.

    Every field is set by :func:`factorize`, the one constructor.

    Attributes
    ----------
    Z : ndarray, shape (m, d)
        Inducing inputs.
    params : KernelParams
    inducing : _Inducing
        Z as the kernel reads it at ``params``' lengthscale.
    K_mm : ndarray, shape (m, m)
        Inducing-point kernel matrix including the jitter diagonal (plus any
        escalation recorded in ``jitter_extra``).
    chol_Kmm : ndarray, shape (m, m)
        Lower Cholesky factor of ``K_mm``.
    Kmm_inv : ndarray, shape (m, m)
        K_mm^{-1}, exactly symmetric.
    neg_half_Kmm_inv : ndarray, shape (m, m)
        -1/2 K_mm^{-1}, the prior's part of the natural gradient's G2.
    logdet_Kmm : float
        log|K_mm|.
    jitter_extra : float
        Extra diagonal added by escalation beyond the configured jitter.
    k_diag : float
        a^2 + jitter, the diagonal of the full kernel matrix on every row.
    """

    Z: np.ndarray
    params: KernelParams
    inducing: _Inducing
    K_mm: np.ndarray
    chol_Kmm: np.ndarray
    Kmm_inv: np.ndarray
    neg_half_Kmm_inv: np.ndarray
    logdet_Kmm: float
    jitter_extra: float
    k_diag: float

    def solve_mm(self, B):
        """K_mm^{-1} B via the Cholesky factor."""
        return cho_solve((self.chol_Kmm, True), B)


@dataclass(frozen=True, eq=False)
class GramRows:
    """Kernel rows of a batch against a factorization, set by :func:`build_gram`.

    Attributes
    ----------
    X : ndarray, shape (n, d)
        The batch rows as the kernel reads them: ``_Inducing.rows`` of the inputs.
    K_nm : ndarray, shape (n, m)
        Cross-kernel between the batch and the inducing inputs (no jitter).
    kappa : ndarray, shape (n, m)
        K_nm K_mm^{-1}, one GEMM with ``Kmm_inv``: no batch solves against K_mm.
    ktilde : ndarray, shape (n,)
        Residual diagonal K_ii - kappa_i K_mm kappa_i^T, clamped at 0.
    """

    X: np.ndarray
    K_nm: np.ndarray
    kappa: np.ndarray
    ktilde: np.ndarray

    def marginals(self, mu, Sigma):
        """Marginals of q(f) at the rows: (kappa mu, Ktilde + diag(kappa Sigma kappa^T)).

        Meant for the SVI step's mini-batch, whose kappa is needed anyway;
        :func:`pggpc.prediction.latent_predict` is the pass over many rows
        and holds no n x m matrix.
        """
        kappa = self.kappa
        return kappa @ mu, self.ktilde + np.einsum("ij,ij->i", kappa @ Sigma, kappa)


def factorize(Z, params):
    """The GramBundle at inducing inputs Z, shape (m, d), and ``params``; the jitter
    and any escalation ``extra`` are added to K_mm's diagonal here, in place."""
    inducing = _Inducing(Z, params.lengthscale)
    K_mm = _cross(inducing.rows(Z), inducing, params)
    K_mm[np.diag_indices_from(K_mm)] += params.jitter
    L, extra = chol_with_escalation(K_mm, params.jitter)
    K_mm[np.diag_indices_from(K_mm)] += extra
    Kmm_inv = chol_inverse(L)
    return GramBundle(Z, params, inducing, K_mm, L, Kmm_inv, -0.5 * Kmm_inv,
                      float(2.0 * np.sum(np.log(np.diag(L)))), extra,
                      params.amplitude**2 + params.jitter)


def build_gram(X, mm):
    """The rows X, shape (s, d), against the factorization ``mm``: the rows in
    kernel units, K_nm, kappa and Ktilde."""
    X = mm.inducing.rows(X)
    K_nm = _cross(X, mm.inducing, mm.params)
    kappa = K_nm @ mm.Kmm_inv
    ktilde = np.maximum(mm.k_diag - np.sum(kappa * K_nm, axis=1), 0.0)
    return GramRows(X, K_nm, kappa, ktilde)


def kern_grad(mm, rows, P_K, P_A, p_diag):
    """<P_K, dK_mm> + <P_A, dK_nm> + p_diag . dk_diag per log hyperparameter.

    The derivatives of (K_mm, K_nm, k_diag) at ``mm`` and its Gram ``rows`` are
    (S_mm o D_mm, S_nm o D_nm, 0) in log l, (2 S_mm, 2 S_nm, 2 a^2) in log a
    and (jitter I, 0, jitter) in log jitter.  D holds the squared distances
    in units of l, -2 ``neg_half_sq`` of ``mm.inducing`` at its Z and at
    ``rows.X`` (so no square overflows), the only kernel work done here; S
    is read from K_nm, and from K_mm less its jitter ``mm.params.jitter +
    mm.jitter_extra``.  Returns shape (3,), ordered as
    KernelParams.as_array().
    """
    S_mm = mm.K_mm.copy()
    S_mm[np.diag_indices_from(S_mm)] -= mm.params.jitter + mm.jitter_extra
    PS_mm = P_K * S_mm
    PS_nm = P_A * rows.K_nm
    inducing = mm.inducing
    D_mm = inducing.neg_half_sq(inducing.Z)
    np.fill_diagonal(D_mm, 0.0)  # z to itself: exactly 0, not the expanded form's round-off
    D_nm = inducing.neg_half_sq(rows.X)
    D_mm *= PS_mm
    D_nm *= PS_nm
    return np.array([
        -2.0 * (np.sum(D_mm) + np.sum(D_nm)),
        2.0 * (np.sum(PS_mm) + np.sum(PS_nm) + mm.params.amplitude**2 * np.sum(p_diag)),
        mm.params.jitter * (np.trace(P_K) + np.sum(p_diag)),
    ])
