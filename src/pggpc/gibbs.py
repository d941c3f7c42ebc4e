"""Exact full-GP Gibbs sampler and VI-agreement reporting.

The sampler alternates the two conjugate conditionals of the augmented
model:

    omega_i | f      ~  PG(1, |f_i|)
    f | omega, y     ~  N(Sigma_w y / 2, Sigma_w),
    Sigma_w = (K_nn^{-1} + Omega)^{-1}

It is asymptotically exact, so long chains provide ground-truth posterior
means, variances, and predictive probabilities against which the sparse
variational approximation is scored.

The f-draw never forms Sigma_w.  By Matheron's rule (pathwise
conditioning) a prior draw f0 ~ N(0, K) is corrected through the
n x n matrix B = I + Omega^{1/2} K Omega^{1/2}, whose eigenvalues are all
at least 1 for any omega >= 0, so one Cholesky of B per sweep gives an
exact draw with nothing divided by omega.  A sweep costs n^3/3 flops for
chol(B), two triangular solves and two matrix-vector products; chol(K)
and K y / 2 are computed once per chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import expit

from .kernel import chol_with_escalation, kern_matrix
from .pg import pg_sample
from .prediction import class_prob

__all__ = ["gibbs_run", "f_conditional", "compare_to_vi", "ComparisonReport"]

# Default chain: total sweeps, burn-in sweeps and thinning stride.
GIBBS_SWEEPS = 5000
GIBBS_BURN_IN = 1000
GIBBS_THIN = 2


def f_conditional(K, L_K, half_Ky, omega, z):
    """One exact draw of f | omega, y, linear in the standard normals ``z``.

    With w = sqrt(omega), B = I + (w w^T) o K, f0 = L_K z[0] and xi = z[1],

        f = f0 + K [y/2 - w o B^{-1} (w o (K y/2 + f0) + xi)]

    has mean Sigma_w y/2 and covariance Sigma_w = K - K W B^{-1} W K with
    W = diag(w) (Matheron's rule).  Cost: one Cholesky of B (n^3/3 flops),
    two triangular solves and two matrix-vector products; Sigma_w is never
    formed.

    Parameters
    ----------
    K : ndarray, shape (n, n)
        Prior covariance of f.
    L_K : ndarray, shape (n, n)
        Lower Cholesky factor of K.
    half_Ky : ndarray, shape (n,)
        K y / 2.
    omega : ndarray, shape (n,)
        Polya-Gamma draws; any omega >= 0, zero included.
    z : ndarray, shape (2, n)
        Standard normals: z[0] drives the prior draw, z[1] the
        pseudo-observation noise.

    Returns
    -------
    ndarray, shape (n,)
    """
    w = np.sqrt(omega)
    f0 = L_K @ z[0]
    B = K * w
    B *= w[:, None]
    B.flat[:: B.shape[0] + 1] += 1.0
    L_B, _ = chol_with_escalation(B, 1e-12)
    v = cho_solve((L_B, True), w * (half_Ky + f0) + z[1])
    return f0 + half_Ky - K @ (w * v)


def gibbs_run(dataset, params, iters=GIBBS_SWEEPS, burn_in=GIBBS_BURN_IN, thin=GIBBS_THIN,
              seed=0):
    """Run the augmented Gibbs chain and keep thinned post-burn-in samples.

    Parameters
    ----------
    dataset : Dataset
        Desk-scale data (each sweep costs O(n^3)).
    params : KernelParams
        Kernel hyperparameters of the exact model (jitter included on the
        diagonal, matching the variational model's kernel).  If chol(K)
        needs extra jitter, the whole chain uses K + extra I, so the prior
        draw and the conditional describe the same model.
    iters : int
        Total sweeps including burn-in; must exceed burn_in by enough to
        store at least two samples, so that the chain has a sample variance.
    burn_in : int
        Sweeps discarded before the first stored sample; at least 0.
    thin : int
        Stride between stored samples; at least 1.
    seed : int

    Returns
    -------
    ndarray, shape (S, n)
        The stored draws of f, one row per kept sweep.

    Raises
    ------
    ValueError
        If thin, burn_in or iters is out of range.
    """
    if thin < 1:
        raise ValueError(f"thin must be at least 1, got {thin}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be at least 0, got {burn_in}")
    stored = len(range(burn_in, iters, thin))
    if stored < 2:
        raise ValueError(
            f"iters must exceed burn_in by enough to store at least two samples, "
            f"got iters={iters}, burn_in={burn_in}, thin={thin}"
        )
    rng = np.random.default_rng(seed)
    n = dataset.n
    K = kern_matrix(dataset.X, dataset.X, params, same=True)
    L_K, extra = chol_with_escalation(K, 1e-12)
    K.flat[:: n + 1] += extra
    half_Ky = K @ (0.5 * dataset.y)
    f = np.zeros(n)
    samples = np.empty((stored, n))
    for t in range(iters):
        omega = pg_sample(np.abs(f), rng)
        f = f_conditional(K, L_K, half_Ky, omega, rng.standard_normal((2, n)))
        if t >= burn_in and (t - burn_in) % thin == 0:
            samples[(t - burn_in) // thin] = f
    return samples


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


def _safe_corr(a, b):
    """Pearson correlation of a and b; 1 or 0 (as they agree or not) when either is flat.

    Each is first scaled exactly, by a power of two, to a peak magnitude under
    1: the correlation is unchanged and no square overflows.
    """
    ua, ub = (np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1]) for v in (a, b))
    if np.std(ua) < 1e-300 or np.std(ub) < 1e-300:
        return 1.0 if np.allclose(a, b, atol=1e-10) else 0.0
    return float(np.corrcoef(ua, ub)[0, 1])


def compare_to_vi(samples, state, dataset):
    """Score a full-GP variational state against the Gibbs ground truth.

    The state must have been trained with Z equal to the dataset's inputs
    (full GP) and ``samples``, the (S, n) draws of :func:`gibbs_run`, drawn
    on the same data and hyperparameters.  The latent posterior is compared
    at the training points: the sample mean, variance and mean sigmoid
    against q(u)'s mean, diagonal variance and class probability (u = f
    when Z = X).

    Returns
    -------
    ComparisonReport
    """
    if state.Z.shape != dataset.X.shape or not np.array_equal(state.Z, dataset.X):
        raise ValueError("compare_to_vi requires a full-GP state with Z = X on this dataset")
    if samples.shape[1] != dataset.n:
        raise ValueError("chain and dataset sizes disagree")

    mcmc_mean = samples.mean(axis=0)
    mcmc_var = samples.var(axis=0, ddof=1)
    mcmc_ppos = expit(samples).mean(axis=0)
    vi_mean = state.mu.copy()
    vi_var = np.diag(state.Sigma).copy()
    vi_ppos = class_prob(vi_mean, vi_var)

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
