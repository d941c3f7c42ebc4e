"""Exact full-GP Gibbs sampler and VI-agreement reporting.

The sampler alternates the two conjugate conditionals of the augmented
model:

    omega_i | f      ~  PG(1, |f_i|)
    f | omega, y     ~  N(Sigma_w y / 2, Sigma_w),
    Sigma_w = (K_nn^{-1} + Omega)^{-1}

It is asymptotically exact, so long chains provide ground-truth posterior
means, variances, and predictive probabilities against which the sparse
variational approximation is scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .kernel import build_gram, chol_with_escalation, kern_matrix
from .pg import pg_sample, sigmoid
from .prediction import QUAD_ORDER, class_prob

__all__ = ["GibbsChain", "gibbs_run", "f_conditional", "compare_to_vi", "ComparisonReport"]

# Default chain: total sweeps, burn-in sweeps and thinning stride.
GIBBS_SWEEPS = 5000
GIBBS_BURN_IN = 1000
GIBBS_THIN = 2


@dataclass(frozen=True)
class GibbsChain:
    """Stored post-burn-in samples of the latent function values.

    Attributes
    ----------
    samples_f : ndarray, shape (S, n)
    burn_in, thin, seed : int
    """

    samples_f: np.ndarray
    burn_in: int
    thin: int
    seed: int


def f_conditional(K, omega, y):
    """Mean and covariance of f | omega, y for prior covariance K.

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


def gibbs_run(dataset, params, iters=GIBBS_SWEEPS, burn_in=GIBBS_BURN_IN, thin=GIBBS_THIN,
              seed=0):
    """Run the augmented Gibbs chain and keep thinned post-burn-in samples.

    Parameters
    ----------
    dataset : Dataset
        Desk-scale data (each sweep costs O(n^3)).
    params : KernelParams
        Kernel hyperparameters of the exact model (jitter included on the
        diagonal, matching the variational model's kernel).
    iters : int
        Total sweeps including burn-in.
    burn_in, thin, seed : int

    Returns
    -------
    GibbsChain
    """
    if iters <= burn_in:
        raise ValueError("iters must exceed burn_in")
    rng = np.random.default_rng(seed)
    K = kern_matrix(dataset.X, dataset.X, params, same=True)
    f = np.zeros(dataset.n)
    samples = []
    for t in range(iters):
        omega = pg_sample(np.abs(f), rng)
        mean, Sw = f_conditional(K, omega, dataset.y)
        Lw, _ = chol_with_escalation(Sw, 1e-12)
        f = mean + Lw @ rng.standard_normal(dataset.n)
        if t >= burn_in and (t - burn_in) % thin == 0:
            samples.append(f.copy())
    return GibbsChain(samples_f=np.array(samples), burn_in=burn_in, thin=thin, seed=seed)


@dataclass(frozen=True)
class ComparisonReport:
    """Paired MCMC-vs-VI posterior summaries and agreement statistics."""

    mcmc_mean: np.ndarray
    mcmc_var: np.ndarray
    mcmc_ppos: np.ndarray
    vi_mean: np.ndarray
    vi_var: np.ndarray
    vi_ppos: np.ndarray
    mean_corr: float
    var_corr: float
    prob_corr: float
    mean_abs_prob_gap: float
    max_abs_prob_gap: float

    def rows(self):
        """Iterate (index, mcmc_mean, mcmc_var, mcmc_ppos, vi_mean, vi_var, vi_ppos)."""
        for i in range(self.mcmc_mean.size):
            yield (
                i,
                self.mcmc_mean[i],
                self.mcmc_var[i],
                self.mcmc_ppos[i],
                self.vi_mean[i],
                self.vi_var[i],
                self.vi_ppos[i],
            )


def _safe_corr(a, b):
    sa, sb = float(np.std(a)), float(np.std(b))
    if sa < 1e-300 or sb < 1e-300:
        return 1.0 if np.allclose(a, b, atol=1e-10) else 0.0
    return float(np.corrcoef(a, b)[0, 1])


def compare_to_vi(chain, state, dataset, test_points=None, quad_order=QUAD_ORDER):
    """Score a full-GP variational state against the Gibbs ground truth.

    The state must have been trained with Z equal to the dataset's inputs
    (full GP) and the chain run on the same data and hyperparameters.  With
    ``test_points=None`` the latent posterior at the training points is
    compared (VI side: q marginals); otherwise both sides project their
    predictive onto the given points.

    Returns
    -------
    ComparisonReport
    """
    if state.Z.shape != dataset.X.shape or not np.array_equal(state.Z, dataset.X):
        raise ValueError("compare_to_vi requires a full-GP state with Z = X on this dataset")
    if chain.samples_f.shape[1] != dataset.n:
        raise ValueError("chain and dataset sizes disagree")

    F = chain.samples_f
    if test_points is None:
        mcmc_mean = F.mean(axis=0)
        mcmc_var = F.var(axis=0, ddof=1)
        mcmc_ppos = sigmoid(F).mean(axis=0)
        vi_mean = state.mu.copy()
        vi_var = np.diag(state.Sigma).copy()
        vi_ppos = class_prob(vi_mean, vi_var, order=quad_order)
    else:
        # With Z = X the bundle's kappa is K_*n K^{-1} and its Ktilde is the
        # exact-GP conditional variance of f* given f.
        gram = build_gram(test_points, state.Z, state.params)
        cond_var = np.maximum(gram.ktilde, 1e-12)
        cond_means = F @ gram.kappa.T  # (S, n_star)
        mcmc_mean = cond_means.mean(axis=0)
        mcmc_var = cond_means.var(axis=0, ddof=1) + cond_var
        mcmc_ppos = class_prob(cond_means, np.broadcast_to(cond_var, cond_means.shape),
                               order=quad_order).mean(axis=0)
        vi_mean, vi_var = gram.marginals(state.mu, state.Sigma)
        vi_var = np.maximum(vi_var, 1e-12)
        vi_ppos = class_prob(vi_mean, vi_var, order=quad_order)

    gaps = np.abs(mcmc_ppos - vi_ppos)
    return ComparisonReport(
        mcmc_mean=mcmc_mean,
        mcmc_var=mcmc_var,
        mcmc_ppos=mcmc_ppos,
        vi_mean=vi_mean,
        vi_var=vi_var,
        vi_ppos=vi_ppos,
        mean_corr=_safe_corr(mcmc_mean, vi_mean),
        var_corr=_safe_corr(mcmc_var, vi_var),
        prob_corr=_safe_corr(mcmc_ppos, vi_ppos),
        mean_abs_prob_gap=float(gaps.mean()),
        max_abs_prob_gap=float(gaps.max()),
    )
