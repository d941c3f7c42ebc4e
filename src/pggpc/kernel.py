"""Squared-exponential kernel, Gram assembly, Cholesky utilities, gradients.

The kernel is k(x, x') = a^2 exp(-||x - x'||^2 / (2 l^2)) plus an additive
white-noise (jitter) term that contributes only when x and x' are the same
point by index.  Hyperparameters are carried in log space so optimizers can
work unconstrained.  Distances are taken about the inducing inputs' centre.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, cholesky, lapack

__all__ = [
    "KernelParams",
    "GramBundle",
    "FactorizationError",
    "HYPER_NAMES",
    "DEFAULT_TEXT",
    "kern_matrix",
    "build_gram",
    "kern_grad",
    "chol_with_escalation",
    "chol_inverse",
    "sq_dists",
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


def sq_dists(X, Z):
    """Pairwise squared Euclidean distances, clamped at zero."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    xx = np.sum(X * X, axis=1)[:, None]
    zz = np.sum(Z * Z, axis=1)[None, :]
    d2 = xx + zz - 2.0 * (X @ Z.T)
    return np.maximum(d2, 0.0)


def _kernel_inputs(X, Z, l=1.0):
    """X and Z in units of l, clamped to +/- ``_FAR``, less c = trunc(mean of Z's rows).

    A squared norm then holds a row's spread about Z, not its offset from the
    origin, so far inputs keep their digits; distances do not move, and at
    c = 0 (standardized inputs) nothing does.
    """
    far = _FAR * l
    X = np.clip(np.atleast_2d(np.asarray(X, dtype=float)), -far, far) / l
    Z = np.clip(np.atleast_2d(np.asarray(Z, dtype=float)), -far, far) / l
    c = np.trunc(Z.mean(axis=0))
    if c.any():
        X, Z = np.clip(X - c, -_FAR, _FAR), np.clip(Z - c, -_FAR, _FAR)
    return X, Z


def kern_matrix(X, Z, params, same=False):
    """Dense kernel matrix between row sets X and Z.

    Built in one (n, m) buffer: with both sets taken by ``_kernel_inputs``
    in units of l, the GEMM x.z is reduced in place by the half row norms,
    clamped at 0 (a squared distance is never negative), exponentiated and
    scaled by a^2.

    With ``same=True`` the two sets are taken to be identical point lists and
    the jitter is added on the diagonal.
    """
    X, Z = _kernel_inputs(X, Z, params.lengthscale)
    K = X @ Z.T
    K -= 0.5 * np.sum(X * X, axis=1)[:, None]
    K -= 0.5 * np.sum(Z * Z, axis=1)
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    K *= params.amplitude**2
    if same:
        K[np.diag_indices_from(K)] += params.jitter
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

    LAPACK ``potri`` fills the lower triangle of the inverse; it is mirrored
    into the upper one in place.
    """
    inv, info = lapack.dpotri(L, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"potri failed (info={info})")
    out = np.tril(inv)
    out += np.tril(inv, -1).T
    return out


@dataclass(eq=False)
class GramBundle:
    """Gram matrices shared by the inference and prediction paths.

    Attributes
    ----------
    K_mm : ndarray, shape (m, m)
        Inducing-point kernel matrix including the jitter diagonal (plus any
        escalation recorded in ``jitter_extra``).
    chol_Kmm : ndarray, shape (m, m)
        Lower Cholesky factor of ``K_mm``.
    K_nm : ndarray, shape (n, m)
        Cross-kernel between the batch and the inducing inputs (no jitter).
    k_diag : ndarray, shape (n,)
        Diagonal of the batch's full kernel matrix: a^2 + jitter on every row.
    jitter_extra : float
        Extra diagonal added by escalation beyond the configured jitter.
    """

    K_mm: np.ndarray
    chol_Kmm: np.ndarray
    K_nm: np.ndarray
    k_diag: np.ndarray
    jitter_extra: float = 0.0

    def solve_mm(self, B):
        """K_mm^{-1} B via the cached Cholesky factor."""
        return cho_solve((self.chol_Kmm, True), B)

    @cached_property
    def Kmm_inv(self):
        """Explicit K_mm^{-1}, exactly symmetric."""
        return chol_inverse(self.chol_Kmm)

    @cached_property
    def kappa(self):
        """kappa = K_nm K_mm^{-1}, shape (n, m): one GEMM with ``Kmm_inv``, which a
        batch bundle shares with the state's ``mm``, so no batch solves against K_mm."""
        return self.K_nm @ self.Kmm_inv

    @cached_property
    def ktilde(self):
        """Residual diagonal K_ii - kappa_i K_mm kappa_i^T, clamped at 0."""
        resid = self.k_diag - np.sum(self.kappa * self.K_nm, axis=1)
        return np.maximum(resid, 0.0)

    def marginals(self, mu, Sigma):
        """Marginals of q(f) at the rows: (kappa mu, Ktilde + diag(kappa Sigma kappa^T)).

        Meant for the SVI step's mini-batch, whose kappa is needed anyway;
        :func:`pggpc.prediction.latent_predict` is the pass over many rows
        and holds no n x m matrix.
        """
        kappa = self.kappa
        return kappa @ mu, self.ktilde + np.einsum("ij,ij->i", kappa @ Sigma, kappa)

    @property
    def logdet_Kmm(self):
        return float(2.0 * np.sum(np.log(np.diag(self.chol_Kmm))))


def build_gram(X_batch, Z, params, mm=None):
    """Assemble the GramBundle for a batch against inducing inputs Z.

    Parameters
    ----------
    X_batch : ndarray, shape (s, d)
    Z : ndarray, shape (m, d)
    params : KernelParams
    mm : GramBundle, optional
        A state's ``mm``, at the same Z and params: its factorization and
        ``Kmm_inv`` are reused instead of recomputed.

    Returns
    -------
    GramBundle
    """
    if mm is None:
        K_mm = kern_matrix(Z, Z, params, same=True)
        L, extra = chol_with_escalation(K_mm, params.jitter)
        if extra:
            K_mm = K_mm + extra * np.eye(K_mm.shape[0])
    else:
        K_mm, L, extra = mm.K_mm, mm.chol_Kmm, mm.jitter_extra
    K_nm = kern_matrix(X_batch, Z, params)
    k_diag = np.full(K_nm.shape[0], params.amplitude**2 + params.jitter)
    gram = GramBundle(K_mm=K_mm, chol_Kmm=L, K_nm=K_nm, k_diag=k_diag, jitter_extra=extra)
    if mm is not None:
        gram.Kmm_inv = mm.Kmm_inv  # one inverse per factorization
    return gram


def kern_grad(gram, X, Z, params, P_K, P_A, p_diag):
    """<P_K, dK_mm> + <P_A, dK_nm> + p_diag . dk_diag per log hyperparameter.

    The derivatives of the bundle's (K_mm, K_nm, k_diag) at the rows X are
    (S_mm o D_mm, S_nm o D_nm, 0) / l^2 in log l, (2 S_mm, 2 S_nm, 2 a^2) in
    log a and (jitter I, 0, jitter) in log jitter.  D holds the squared
    distances, the only kernel work done here; S is the squared-exponential
    part read from the bundle: K_nm, and K_mm less its jitter diagonal
    ``params.jitter + gram.jitter_extra``.  D is taken on the rows as
    ``_kernel_inputs`` gives them, so no square overflows.  Returns shape
    (3,), ordered as KernelParams.as_array().
    """
    S_mm = gram.K_mm.copy()
    S_mm[np.diag_indices_from(S_mm)] -= params.jitter + gram.jitter_extra
    PS_mm = P_K * S_mm
    PS_nm = P_A * gram.K_nm
    X, Z = _kernel_inputs(X, Z)
    d_ell = np.sum(PS_mm * sq_dists(Z, Z)) + np.sum(PS_nm * sq_dists(X, Z))
    return np.array([
        d_ell / params.lengthscale**2,
        2.0 * (np.sum(PS_mm) + np.sum(PS_nm) + params.amplitude**2 * np.sum(p_diag)),
        params.jitter * (np.trace(P_K) + np.sum(p_diag)),
    ])
