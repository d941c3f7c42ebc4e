"""Brute-force references that only the tests use.

Each routine recomputes a library quantity by an independent route: the
full-GP bound two ways, the sparse bound over every row from the blocked
predictive pass and again from a bundle over every row, the
Euclidean gradients of the bound, the dense Gram-matrix derivatives in each
log hyperparameter, the general-b Polya-Gamma mean, the truncated
gamma-series Polya-Gamma sampler, the single-point kernel, the
moment-to-natural parameter map, the Lloyd steps of k-means++ by one mask
per cluster, and the dense mean and covariance of the Gibbs f-draw.  The
state copy, the state at other kernel parameters with K_mm factorized
afresh, the prior state at k-means++ inducing inputs, the full-data
batch, a fresh bundle, the optimal tilts at a fresh bundle and the inverse
standardization live here too, since only tests need them.
"""

from dataclasses import replace

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.special import expit as sigmoid

from pggpc.data import MiniBatch
from pggpc.inference import elbo, local_update
from pggpc.kernel import build_gram, chol_with_escalation, sq_dists
from pggpc.model import init_state, kmeanspp_init
from pggpc.pg import log_cosh, pg_kl_term, theta
from pggpc.prediction import latent_predict

_LOG2 = float(np.log(2.0))


def kern(x, xp, params, same_index=False):
    """Kernel value between two points.

    Parameters
    ----------
    x, xp : array_like, shape (d,)
        Input locations; dimensions must match.
    params : KernelParams
    same_index : bool, optional
        True when x and xp refer to the same point by index, in which case
        the white-noise jitter is added.

    Returns
    -------
    float
    """
    x = np.asarray(x, dtype=float).ravel()
    xp = np.asarray(xp, dtype=float).ravel()
    if x.shape != xp.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {xp.shape}")
    d2 = float(np.sum((x - xp) ** 2))
    val = params.amplitude**2 * np.exp(-0.5 * d2 / params.lengthscale**2)
    if same_index:
        val += params.jitter
    return float(val)


def kern_grad_dense(X, Z, params):
    """Gram-matrix derivatives with respect to each log hyperparameter.

    Maps each of "log_lengthscale", "log_amplitude", "log_jitter" to a
    (dK_mm, dK_nm, dk_diag) triple matching the shapes produced by
    ``build_gram`` (jitter included only where the kernel adds it: the K_mm
    diagonal and k_diag, never the cross matrix).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n, m = X.shape[0], Z.shape[0]
    ell2 = params.lengthscale**2
    a2 = params.amplitude**2
    d2_mm = sq_dists(Z, Z)
    d2_nm = sq_dists(X, Z)
    S_mm = a2 * np.exp(-0.5 * d2_mm / ell2)
    S_nm = a2 * np.exp(-0.5 * d2_nm / ell2)
    return {
        "log_lengthscale": (S_mm * d2_mm / ell2, S_nm * d2_nm / ell2, np.zeros(n)),
        "log_amplitude": (2.0 * S_mm, 2.0 * S_nm, np.full(n, 2.0 * a2)),
        "log_jitter": (params.jitter * np.eye(m), np.zeros((n, m)), np.full(n, params.jitter)),
    }


def pg_mean(b, c):
    """Expectation of omega ~ PG(b, c): b / (2 c) tanh(c / 2), with the limit b / 4 at c = 0.

    The library's ``theta`` is the b = 1 case; b must be strictly positive.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0.0):
        raise ValueError("PG shape parameter b must be positive")
    return (b * theta(c))[()]


def moments_to_natural(mu, Sigma):
    """(eta1, eta2) from moment parameters; requires Sigma SPD."""
    L = cholesky(0.5 * (Sigma + Sigma.T), lower=True)
    prec = cho_solve((L, True), np.eye(Sigma.shape[0]))
    prec = 0.5 * (prec + prec.T)
    return prec @ mu, -0.5 * prec


def pg_sample_gamma_approx(c, rng, size=None, n_terms=200):
    """Approximate PG(1, c) draw from the truncated sum-of-gammas series.

    omega = (1 / (2 pi^2)) * sum_{k=1..n_terms} g_k / ((k - 1/2)^2 + (c / (2 pi))^2)

    with g_k ~ Exp(1).  The truncation introduces a small negative bias in
    the mean (about 1/(2 pi^2 n_terms)); the routine exists to cross-validate
    the exact sampler, not to replace it.
    """
    c = np.asarray(c, dtype=float)
    if size is not None:
        c = np.broadcast_to(c, size)
    k = np.arange(1, n_terms + 1, dtype=float)
    denom = (k - 0.5) ** 2 + (np.abs(c)[..., None] / (2.0 * np.pi)) ** 2
    g = rng.standard_exponential(np.shape(c) + (n_terms,))
    out = (g / denom).sum(axis=-1) / (2.0 * np.pi**2)
    return out[()]


def gibbs_mackay_bound(f, c, y):
    """The full-GP likelihood bound computed two independent ways.

    Route (a) is the augmented-bound form
        1/2 y^T f - 1/2 f^T Theta f - n log 2 + sum_i (c_i^2 theta_i / 2 - log cosh(c_i/2))
    and route (b) the quadratic product-of-bounds form
        sum_i [ log sigma(c_i) + (y_i f_i - c_i)/2
                - (sigma(c_i) - 1/2)/(2 c_i) ((y_i f_i)^2 - c_i^2) ].

    The two are identical; returning both lets tests confirm it.  Route (b)
    is computed via the logistic function only (no tanh/cosh), with the
    series 1/8 - c^2/96 + c^4/960 for the small-c coefficient.

    Returns
    -------
    (float, float)
    """
    f = np.asarray(f, dtype=float).ravel()
    c = np.abs(np.asarray(c, dtype=float)).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = f.size
    th = theta(c)
    a = (
        0.5 * float(y @ f)
        - 0.5 * float(f @ (th * f))
        - n * _LOG2
        + float(0.5 * (c * c) @ th - np.sum(log_cosh(0.5 * c)))
    )

    small = c < 1e-3
    safe = np.where(small, 1.0, c)
    lam = np.where(
        small,
        0.125 - c * c / 96.0 + c**4 / 960.0,
        (sigmoid(safe) - 0.5) / (2.0 * safe),
    )
    log_sig_c = -np.log1p(np.exp(-c))
    yf = y * f
    b = float(np.sum(log_sig_c + 0.5 * (yf - c) - lam * (yf * yf - c * c)))
    return a, b


def clone(state):
    """Copy of a VariationalState whose arrays can be changed independently."""
    return replace(
        state,
        eta1=state.eta1.copy(),
        eta2=state.eta2.copy(),
        mu=state.mu.copy(),
        Sigma=state.Sigma.copy(),
    )


def at_params(state, params):
    """The state with its kernel at params and K_mm factorized there afresh; q(u) is kept."""
    no_rows = np.empty((0, state.Z.shape[1]))
    return replace(state, params=params, mm=build_gram(no_rows, state.Z, params))


def prior_state(dataset, m, params, rng):
    """``init_state`` at m k-means++ inducing inputs drawn with ``rng``."""
    return init_state(kmeanspp_init(dataset.X, m, rng), params)


def every_row(dataset):
    """The full-data batch: every row, unscaled."""
    return MiniBatch(indices=np.arange(dataset.n), scale=1.0)


def bundle(state, X):
    """A fresh bundle for the rows X at the state's (Z, params)."""
    return build_gram(X, state.Z, state.params)


def tilts(state, X):
    """The optimal tilts at the rows X: ``local_update`` on a fresh bundle."""
    return local_update(state, bundle(state, X))


def unstandardize(scaler, X):
    """Inverse of ``scaler.apply``: the raw features of standardized rows."""
    return np.atleast_2d(np.asarray(X, dtype=float)) * scaler.stds + scaler.means


def gauss_part(state):
    """Negative Gaussian KL part of the bound: ``elbo`` over no rows."""
    no_rows = np.empty(0)
    return elbo(state, no_rows, no_rows, no_rows, no_rows, 1.0)


def full_elbo(state, dataset, c, include_constants=False):
    """The bound over every row of the dataset at the tilts c, one per row.

    The state's K_mm factorization is used and the q(f) marginals come from
    the blocked ``latent_predict`` pass.  By default the value drops the
    additive constants; ``include_constants=True`` adds m/2 - n log 2,
    making it a true lower bound on log p(y).
    """
    if np.shape(c) != (dataset.n,):
        raise ValueError("c must hold a tilt for every data point")
    kmu, var = latent_predict(state, dataset.X)
    value = elbo(state, dataset.y, c, kmu, var, 1.0)
    if include_constants:
        value += 0.5 * state.m - dataset.n * _LOG2
    return value


def elbo_kappa_form(state, dataset, c):
    """The bound at the tilts c with q(f) marginals read from a bundle over every row.

    kappa = K_nm K_mm^{-1} and Ktilde are held for all n rows, and the
    marginals are (kappa mu, Ktilde + diag(kappa Sigma kappa^T)).
    """
    gram = build_gram(dataset.X, state.Z, state.params)
    kmu, var = gram.marginals(state.mu, state.Sigma)
    data = 0.5 * (dataset.y @ kmu - theta(c) @ (var + kmu * kmu)) - np.sum(pg_kl_term(c))
    return float(gauss_part(state) + data)


def elbo_grad_mu(state, dataset, c, gram=None):
    """Euclidean gradient dL/dmu = -(K_mm^{-1} + kappa^T Theta kappa) mu + 1/2 kappa^T y."""
    if gram is None:
        gram = build_gram(dataset.X, state.Z, state.params)
    kappa = gram.kappa
    th = theta(c)
    ktk = (kappa * th[:, None]).T @ kappa
    return -(gram.Kmm_inv + ktk) @ state.mu + 0.5 * (kappa.T @ dataset.y)


def elbo_grad_sigma(state, dataset, c, gram=None):
    """Euclidean gradient dL/dSigma = 1/2 (Sigma^{-1} - K_mm^{-1} - kappa^T Theta kappa)."""
    if gram is None:
        gram = build_gram(dataset.X, state.Z, state.params)
    kappa = gram.kappa
    th = theta(c)
    ktk = (kappa * th[:, None]).T @ kappa
    L_s = cholesky(0.5 * (state.Sigma + state.Sigma.T), lower=True)
    Sinv = cho_solve((L_s, True), np.eye(state.Sigma.shape[0]))
    return 0.5 * (0.5 * (Sinv + Sinv.T) - gram.Kmm_inv - ktk)


def lloyd_by_masks(X, centers, iters):
    """Lloyd steps with one boolean mask per cluster; an empty cluster keeps its center."""
    centers = centers.copy()
    for _ in range(iters):
        d2_all = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        assign = np.argmin(d2_all, axis=1)
        for j in range(centers.shape[0]):
            mask = assign == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
    return centers


def f_conditional_dense(K, omega, y):
    """Mean and covariance of f | omega, y for prior covariance K, formed densely.

    Uses the inversion-free form Sigma_w = K - K (K + Omega^{-1})^{-1} K
    whenever every omega is comfortably positive, falling back to the
    direct (K^{-1} + Omega)^{-1} otherwise.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    n = K.shape[0]
    if omega.min() > 1e-10:
        L, _ = chol_with_escalation(K + np.diag(1.0 / omega), 1e-12)
        Sw = K - K @ cho_solve((L, True), K)
    else:
        Lk, _ = chol_with_escalation(K, 1e-12)
        prec = cho_solve((Lk, True), np.eye(n)) + np.diag(omega)
        Lp, _ = chol_with_escalation(prec, 1e-12)
        Sw = cho_solve((Lp, True), np.eye(n))
    Sw = 0.5 * (Sw + Sw.T)
    return Sw @ (0.5 * y), Sw
