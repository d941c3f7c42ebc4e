"""Predictive latent marginals, class probabilities, and test metrics.

:func:`latent_predict` is the one pass that computes q(f) marginals over
more rows than a mini-batch: at test points, and at the training rows for
the all-rows bound (:func:`~pggpc.inference.bound`, which ``fit`` leaves
until ``FitResult.final_elbo`` is first read).  The latent
predictive at x* is Gaussian with

    mu*     = K_*m K_mm^{-1} mu
    sigma*^2 = K_** + K_*m K_mm^{-1} (Sigma K_mm^{-1} - I) K_m*

Every test-independent factor is formed once per call from the K_mm
factorization, in O(m^3): the m-vector alpha = K_mm^{-1} mu and the
symmetric m x m matrix B = K_mm^{-1} (Sigma - K_mm) K_mm^{-1}, the latter by
two Cholesky solves on Sigma - K_mm (against per-row whitened solves on
a fitted state with m=300, d=8: 6e-11 relative in sigma*^2, where
K_mm^{-1} Sigma K_mm^{-1} - K_mm^{-1} gives 1e-10).  Then

    mu*      = K_*m alpha
    sigma*^2 = K_** + rowsum((K_*m B) o K_*m)

costs one GEMM, about 2 m^2 flops per test point, over blocks of rows, so no
n* x m matrix is ever held.  For a q(u) of the form fitting produces
(Sigma^{-1} = K_mm^{-1} + a PSD term) this agrees with per-row solves to
~1e-10 relative, also at cond(K_mm) ~ 4e7; for an arbitrary Sigma much wider
than K_mm on a near-singular K_mm, B amplifies round-off and per-row solves
keep more digits.  The class probability integrates the logistic link
against the predictive Gaussian by quadrature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .kernel import _cross

__all__ = ["QUAD_ORDER", "latent_predict", "class_prob", "predicted_label", "evaluate",
           "EvalReport"]

QUAD_ORDER = 20  # Gauss-Hermite nodes of the predictive class probability
# The rule is exactly symmetric: its positive nodes x_k and their weights w_k.
_GH_NODES, _GH_WEIGHTS = (a[QUAD_ORDER // 2:] for a in np.polynomial.hermite.hermgauss(QUAD_ORDER))
# Rows per GEMM in latent_predict, so its scratch is O(block * m), not O(n * m).
_ROW_BLOCK = 512


@dataclass(frozen=True)
class EvalReport:
    """Test-set metrics: 0/1 error and mean negative log predictive likelihood."""

    error_rate: float
    mean_nll: float
    n: int


def latent_predict(state, x_star):
    """Latent predictive mean(s) and variance(s) at new inputs, from ``state.mm``.

    Each row block's K_*m is taken against ``state.mm.inducing`` at
    ``state.mm.params``, and sigma*^2 starts at ``state.mm.k_diag``.

    Parameters
    ----------
    state : VariationalState
    x_star : array_like, shape (n_star, d)
        A single point of shape (d,) is taken as one row.  A feature count
        other than ``state.Z``'s is a named ``ValueError``, also with no rows.

    Returns
    -------
    (mu_star, var_star)
        Arrays of shape (n_star,).  Variances are floored at 1e-12 against
        round-off.
    """
    X = np.atleast_2d(np.asarray(x_star, dtype=float))
    mm = state.mm
    mm.inducing.rows(X[:0])  # the width check of every block, also when there is none
    alpha = mm.solve_mm(state.mu)
    B = mm.solve_mm(mm.solve_mm(state.Sigma - mm.K_mm).T)
    mu_star = np.empty(X.shape[0])
    var_star = np.full(X.shape[0], mm.k_diag)
    for lo in range(0, X.shape[0], _ROW_BLOCK):
        K = _cross(mm.inducing.rows(X[lo:lo + _ROW_BLOCK]), mm.inducing, mm.params)
        mu_star[lo:lo + _ROW_BLOCK] = K @ alpha
        var_star[lo:lo + _ROW_BLOCK] += np.einsum("ij,ij->i", K @ B, K)
    np.maximum(var_star, 1e-12, out=var_star)
    return mu_star, var_star


# A single Gauss-Hermite rule is accurate only while the Gaussian is narrow
# against the logistic's analyticity strip (poles at +/- i pi): with 20 nodes
# the error is ~3e-10 up to this variance but ~4e-3 at width 5.
_SINGLE_RULE_VAR = 1.0 + 1.0 / 16.0
# The wide rule: the trapezoid rule in the offset t = f - mu* on the symmetric
# grid k * _TRAP_STEP, |t| <= _TRAP_SDS sigma*.  The integrand is analytic in
# |Im t| < pi, so the error decays like exp(-2 pi^2 / step) times the
# Gaussian's growth exp(pi^2 / (2 sigma*^2)) there: ~1e-15 at this step.
_TRAP_STEP = 0.5
_TRAP_SDS = 9.0
# Grid values (rows x nodes) per block of the wide rule.
_TRAP_BLOCK = 1 << 16
# Past this variance (3.6e5 nodes a row) the expansion about the unit step,
# exact to O(sigma*^-4), takes over: the two rules agree to 3e-16 here.
_TRAP_MAX_VAR = 1e8


def _trapezoid_prob(mu, sd):
    """Trapezoid-rule class probabilities for wide Gaussians, in row blocks.

    Rows are taken widest first; each block shares the grid its widest row
    needs, and holds at most ``_TRAP_BLOCK`` grid values (or one row).
    """
    out = np.empty(mu.shape)
    order = np.argsort(-sd, kind="stable")
    lo = 0
    while lo < order.size:
        half = int(np.ceil(_TRAP_SDS * sd[order[lo]] / _TRAP_STEP))
        t = _TRAP_STEP * np.arange(-half, half + 1)
        rows = order[lo:lo + max(1, _TRAP_BLOCK // t.size)]
        w = np.exp(-0.5 * (t / sd[rows, None]) ** 2)
        p = np.einsum("ij,ij->i", w, expit(mu[rows, None] + t))
        out[rows] = p / w.sum(axis=1)
        lo += rows.size
    return out


def _step_expansion_prob(mu, sd):
    """Class probability of a very wide Gaussian: Phi(z) - (pi^2/6) z phi(z) / sd^2, z = mu/sd.

    sigma(f) is the unit step plus an odd g with integral f g(f) df = -pi^2/6.
    """
    z = mu / sd
    return ndtr(z) - (np.pi**2 / 6.0) * z * np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sd * sd)


def class_prob(mu_star, var_star):
    """p(y* = +1) = integral of sigma(f) N(f | mu*, sigma*^2) df by quadrature.

    Variances up to 1.0625 take Gauss-Hermite with ``QUAD_ORDER`` nodes, as
    1/2 + sum_k w_k [tanh((mu* + a_k)/2) + tanh((mu* - a_k)/2)] / (2 sqrt(pi))
    over the node pairs +/- a_k = +/- sqrt(2) sigma* x_k.  Each pair has the
    sign of mu*, so mu* = 0 gives exactly 1/2, and no summation order moves
    a probability across 1/2, the :func:`predicted_label` cut.  Wider
    Gaussians take the trapezoid rule with step 0.5 in f - mu* over
    +/- 9 sigma*, weighted by the Gaussian density normalised per row; it
    converges geometrically because the logistic is analytic in
    |Im f| < pi.  Against ``scipy.integrate.quad`` on mu* in [-5, 5] the
    error is at most ~3e-15 on the wide branch (sigma*^2 up to 25) and
    ~3e-10 on the narrow one at 20 nodes.  Variances past 1e8, where that
    grid would grow without bound, take the expansion about the unit step
    (:func:`_step_expansion_prob`).  A zero variance degenerates to
    sigmoid(mu*), and every rule keeps the symmetry p(-mu*) = 1 - p(mu*).

    Parameters
    ----------
    mu_star, var_star : float or array_like
        A NaN mean, or a negative or NaN variance, is a ``ValueError``.

    Returns
    -------
    float or ndarray
        Probabilities in [0, 1]: the narrow rule's round-off is ~1e-16 in
        either tail, and its sum is clipped there.
    """
    mu = np.asarray(mu_star, dtype=float)
    var = np.asarray(var_star, dtype=float)
    if np.isnan(mu).any():
        raise ValueError("predictive mean must not be NaN")
    if not np.all(var >= 0.0):  # also catches NaN
        raise ValueError("predictive variance must be nonnegative")
    shape = np.broadcast_shapes(mu.shape, var.shape)
    mu_flat = np.broadcast_to(mu, shape).ravel()
    var_flat = np.broadcast_to(var, shape).ravel()
    out = np.empty(mu_flat.shape)

    narrow = var_flat <= _SINGLE_RULE_VAR
    if narrow.any():
        mu_n, a = mu_flat[narrow, None], np.sqrt(2.0 * var_flat[narrow])[:, None] * _GH_NODES
        pairs = np.tanh(0.5 * (mu_n + a)) + np.tanh(0.5 * (mu_n - a))
        out[narrow] = np.clip(0.5 + pairs @ _GH_WEIGHTS * (0.5 / np.sqrt(np.pi)), 0.0, 1.0)
    vast = var_flat > _TRAP_MAX_VAR
    if vast.any():
        out[vast] = _step_expansion_prob(mu_flat[vast], np.sqrt(var_flat[vast]))
    wide = ~narrow & ~vast
    if wide.any():
        out[wide] = _trapezoid_prob(mu_flat[wide], np.sqrt(var_flat[wide]))
    return out.reshape(shape)[()]


def predicted_label(p_pos):
    """The label of each class probability: +1 where p_pos >= 1/2, -1 elsewhere."""
    return np.where(p_pos >= 0.5, 1, -1)


def evaluate(state, test_set):
    """Error rate and mean negative log predictive likelihood on a test set.

    A point counts as an error when its :func:`predicted_label` (as
    ``pggpc predict`` labels it) differs from its label; probabilities are
    floored at 1e-12 before the log.  Like
    :func:`latent_predict`, it reads the state's K_mm factorization.
    """
    if test_set.n == 0:
        raise ValueError("empty test set")
    mu, var = latent_predict(state, test_set.X)
    p_pos = class_prob(mu, var)
    error = float(np.mean(predicted_label(p_pos) != test_set.y))
    p_label = np.where(test_set.y > 0, p_pos, 1.0 - p_pos)
    nll = float(-np.mean(np.log(np.maximum(p_label, 1e-12))))
    return EvalReport(error_rate=error, mean_nll=nll, n=test_set.n)
