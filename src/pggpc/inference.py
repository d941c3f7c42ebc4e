"""Natural-gradient stochastic variational inference for the PG-augmented GP.

The collapsed evidence lower bound over q(u) = N(mu, Sigma) and per-datum
Polya-Gamma tilts c is

    L = 1/2 ( log|Sigma| - log|K_mm| - tr(K_mm^{-1} Sigma) - mu^T K_mm^{-1} mu
              + sum_i [ y_i kappa_i mu
                        - theta_i (Ktilde_ii + kappa_i Sigma kappa_i^T + (kappa_i mu)^2)
                        + c_i^2 theta_i - 2 log cosh(c_i / 2) ] )

with kappa = K_nm K_mm^{-1}, Ktilde_ii the Nystrom residual, and
theta_i = tanh(c_i/2)/(2 c_i).  The expression drops additive constants
(m/2 from the Gaussian KL and -n log 2 from the likelihood); adding them
back makes it a true lower bound on log p(y).  :func:`elbo` alone assembles
it, from q(f) marginals at a mini-batch (data terms scaled by n/s) or at
every row.

Optimal local updates (c), natural-gradient global updates (eta1, eta2), an
adaptive stochastic learning rate, analytic kernel-hyperparameter gradients,
and the training loop all live here; a batch's tilts are an argument of
its steps, not state.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .data import minibatch_iter
from .kernel import FactorizationError, KernelParams, build_gram, kern_grad
from .model import Dataset, VariationalState, init_state, kmeanspp_init
from .pg import pg_kl_term, theta
from .prediction import _ROW_BLOCK, evaluate, latent_predict

__all__ = [
    "TrainConfig",
    "FitResult",
    "elbo",
    "local_update",
    "natural_gradient",
    "global_step",
    "AdaptiveRate",
    "AdamState",
    "hyper_grad",
    "hyper_step",
    "fit",
]

TRACE_COLUMNS = ("iter", "wall_seconds", "elbo_estimate", "rho")
CONV_WINDOW = 5  # iterations averaged by either convergence rule
HELDOUT_THRESHOLD = 1e-3  # relative held-out NLL change that counts as converged
_RATE_BURN_IN = 10  # AdaptiveRate: observations averaged plainly before the window
_RATE_TAU0 = 1.0  # AdaptiveRate: initial window
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Knobs of the SVI training loop; the one definition of their defaults.

    The defaults are the paper's benchmarking protocol, and the command line
    reads its defaults here.  ``heldout_frac`` picks the stopping rule:
    when it is None, training converges when the ``CONV_WINDOW`` average of
    the relative natural-parameter change drops below ``conv_threshold``;
    otherwise that fraction of the rows is held out, and training converges
    when the average relative held-out NLL change drops below
    ``HELDOUT_THRESHOLD``.  The step size is :class:`AdaptiveRate` when
    ``fixed_lr`` is None and the constant ``fixed_lr`` otherwise.
    """

    num_inducing: int = 100  # k-means++ on at most max(2000, 20 m) sampled rows
    batch_size: int = 100
    max_iters: int = 1000
    conv_threshold: float = 1e-4
    fixed_lr: float | None = None  # None: the adaptive rate
    hyper_every: int = 10  # 0 disables hyperparameter optimization
    adam_lr: float = 0.02
    seed: int = 0
    heldout_frac: float | None = None  # None: the natural-parameter rule
    init_params: KernelParams | None = None
    inducing_Z: np.ndarray | None = None
    trace_train_error: bool = False

    def __post_init__(self):
        if not self.conv_threshold >= 0.0:
            raise ValueError(f"conv_threshold must be nonnegative, got {self.conv_threshold}")
        if self.fixed_lr is not None and not 0.0 < self.fixed_lr <= 1.0:
            raise ValueError("fixed_lr must be in (0, 1]")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.hyper_every < 0:
            raise ValueError(f"hyper_every must be nonnegative, got {self.hyper_every}")
        if not 0.0 < self.adam_lr < np.inf:
            raise ValueError(f"adam_lr must be positive and finite, got {self.adam_lr}")
        if self.heldout_frac is not None and not 0.0 < self.heldout_frac < 1.0:
            raise ValueError(f"heldout_frac must be in (0, 1), got {self.heldout_frac}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def heldout_rows(self, n):
        """Rows of an n-row dataset that :func:`fit` holds out; 0 when heldout_frac is None."""
        if self.heldout_frac is None:
            return 0
        return max(1, int(round(n * self.heldout_frac)))


@dataclass
class FitResult:
    """Outcome of :func:`fit`."""

    state: VariationalState
    trace: np.ndarray
    trace_columns: tuple
    converged: bool
    n_iters: int
    wall_seconds: float
    final_elbo: float = float("nan")
    heldout: Dataset | None = None


def _optimal_tilts(kmu, var):
    """Tilts that maximize the bound at q(f) marginals (kmu, var): sqrt(var + kmu^2)."""
    return np.sqrt(np.maximum(var + kmu * kmu, 0.0))


def elbo(state, y, c, kmu, var, scale):
    """The bound: its Gaussian part plus ``scale`` times some rows' data terms.

    The Gaussian part reads ``state.mm``'s ``Kmm_inv`` and ``logdet_Kmm``
    and the state's ``logdet_Sigma``, which the global step filled from the
    precision's factor, so the bound factorizes nothing.
    The data terms of the rows with labels y, tilts c and q(f) marginals
    (kmu, var) are summed ``_ROW_BLOCK`` rows at a time, so an all-rows
    bound has O(block) temporaries.  ``scale`` is n/s for s of n rows, 1.0
    for every row; the constants m/2 - n log 2 are left out.
    """
    B = state.mm.Kmm_inv
    tr = float(np.sum(B * state.Sigma))
    quad = float(state.mu @ B @ state.mu)
    data = 0.0
    for lo in range(0, y.shape[0], _ROW_BLOCK):
        b = slice(lo, lo + _ROW_BLOCK)
        th = theta(c[b])
        data += 0.5 * (y[b] @ kmu[b] - th @ (var[b] + kmu[b] * kmu[b])) - np.sum(pg_kl_term(c[b]))
    return float(0.5 * (state.logdet_Sigma - state.mm.logdet_Kmm - tr - quad) + scale * data)


def local_update(state, gram):
    """Optimal tilts c_i = sqrt(Ktilde_ii + kappa_i Sigma kappa_i^T + (kappa_i mu)^2).

    The marginals come from the bundle's kappa and Ktilde, as the natural
    gradient of a mini-batch needs them anyway.

    Parameters
    ----------
    state : VariationalState
    gram : GramBundle
        Bundle for the rows to update, at the state's (Z, params).

    Returns
    -------
    ndarray
        The tilts of the bundle's rows.
    """
    return _optimal_tilts(*gram.marginals(state.mu, state.Sigma))


def natural_gradient(state, dataset, batch, gram, c):
    """Mini-batch natural gradient of the bound in (eta1, eta2).

    g1 = (n / 2s) kappa_S^T y_S - eta1
    G2 = -1/2 (K_mm^{-1} + (n/s) kappa_S^T Theta_S kappa_S) - eta2

    with Theta_S = diag(theta(c)) at the batch tilts c.  The full-data
    gradient is the batch ``MiniBatch(np.arange(n), 1.0)``.

    Parameters
    ----------
    state : VariationalState
    dataset : Dataset
    batch : MiniBatch
    gram : GramBundle
        Bundle for the batch rows.
    c : ndarray, shape (s,)
        Tilts of the batch rows.

    Returns
    -------
    (ndarray, ndarray)
        g1 of shape (m,) and G2 of shape (m, m).
    """
    kappa = gram.kappa
    th = theta(c)
    g1 = 0.5 * batch.scale * (kappa.T @ dataset.y[batch.indices]) - state.eta1
    ktk = (kappa * th[:, None]).T @ kappa
    G2 = -0.5 * (gram.Kmm_inv + batch.scale * ktk) - state.eta2
    return g1, 0.5 * (G2 + G2.T)


def global_step(state, g1, G2, rho):
    """Natural-gradient ascent step eta += rho * gradient; refreshes (mu, Sigma).

    For rho in (0, 1] the update is a convex combination of two negative
    definite precisions, so -2 eta2 stays SPD; a Cholesky failure here
    signals a bug rather than a data condition.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"learning rate must lie in [0, 1], got {rho}")
    return state.with_natural(state.eta1 + rho * g1, state.eta2 + rho * G2)


class AdaptiveRate:
    """Stochastic-gradient-statistics learning rate.

    Maintains moving averages gbar of the flattened natural gradient and h
    of its squared norm over an adaptive window tau, and returns
    rho = ||gbar||^2 / h clamped to (1e-6, 1].  The window grows when the
    gradient signal-to-noise is low (tau <- tau (1 - rho) + 1).  The first
    few observations use plain running averages.  :func:`fit` uses it unless
    ``TrainConfig.fixed_lr`` sets a constant step.
    """

    def __init__(self):
        self._tau = _RATE_TAU0
        self._gbar = 0.0
        self._h = 0.0
        self._count = 0

    def observe(self, gvec):
        """Record one gradient vector and return the step size to use."""
        self._count += 1
        g = np.asarray(gvec, dtype=float).ravel()
        w = 1.0 / (self._count if self._count <= _RATE_BURN_IN else self._tau)
        self._gbar = (1.0 - w) * self._gbar + w * g
        self._h = (1.0 - w) * self._h + w * float(g @ g)
        if self._h <= 0.0:
            rho = 1.0
        else:
            rho = float(self._gbar @ self._gbar) / self._h
        rho = min(1.0, max(rho, 1e-6))
        self._tau = self._tau * (1.0 - rho) + 1.0
        return rho


@dataclass
class AdamState:
    """Adam accumulator for the three log-space kernel hyperparameters."""

    lr: float
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def step(self, grad):
        """Ascent increment for the given gradient."""
        grad = np.asarray(grad, dtype=float)
        self.t += 1
        self.m = _ADAM_BETA1 * self.m + (1.0 - _ADAM_BETA1) * grad
        self.v = _ADAM_BETA2 * self.v + (1.0 - _ADAM_BETA2) * grad * grad
        mhat = self.m / (1.0 - _ADAM_BETA1**self.t)
        vhat = self.v / (1.0 - _ADAM_BETA2**self.t)
        return self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


def hyper_grad(state, dataset, batch, gram, c):
    """Mini-batch gradient of the bound in (log l, log a, log jitter).

    Differentiates the bound through K_mm, kappa, and Ktilde while holding
    (mu, Sigma) and the batch tilts c fixed.  With B = K_mm^{-1}, mu~ = B mu,
    M = Sigma + mu mu^T and Theta = diag(theta(c)), the bound's derivative
    against any kernel perturbation (dK_mm, dK_nm, dk_diag) is

        <P_K, dK_mm> + <P_A, dK_nm> + p_diag . dk_diag

    where
        P_K = -B/2 + B Sigma B / 2 + mu~ mu~^T / 2 - (kappa^T y) mu~^T / 2
              - kappa^T Theta kappa / 2 + kappa^T Theta kappa M B
        P_A = y mu~^T / 2 + Theta kappa - Theta kappa M B
        p_diag = -theta / 2,

    contracted with the batch bundle's derivatives by
    :func:`~pggpc.kernel.kern_grad`.  The data parts (kappa^T y and
    kappa^T Theta kappa in P_K, all of P_A and p_diag) are scaled by n/s as
    in :func:`natural_gradient`, so the estimate is unbiased for the
    full-data gradient, the batch ``MiniBatch(np.arange(n), 1.0)``; the
    Gaussian KL part is exact.

    Returns
    -------
    ndarray, shape (3,)
        Ordered as KernelParams.as_array().
    """
    idx = batch.indices
    X, y, scale = dataset.X[idx], dataset.y[idx], batch.scale
    B = gram.Kmm_inv
    mu, Sigma = state.mu, state.Sigma
    mu_t = B @ mu
    MB = (Sigma + np.outer(mu, mu)) @ B
    kappa = gram.kappa
    th = theta(c)
    Tk = kappa * th[:, None]
    ktk = scale * (kappa.T @ Tk)
    ky = scale * (kappa.T @ y)

    P_K = (
        -0.5 * B
        + 0.5 * B @ Sigma @ B
        + 0.5 * np.outer(mu_t, mu_t)
        - 0.5 * np.outer(ky, mu_t)
        - 0.5 * ktk
        + ktk @ MB
    )
    P_A = scale * (0.5 * np.outer(y, mu_t) + Tk - Tk @ MB)
    return kern_grad(gram, X, state.Z, state.params, P_K, P_A, -0.5 * scale * th)


def hyper_step(state, dataset, adam, batch, gram, c):
    """One Adam ascent step on the kernel hyperparameters.

    q(u) and the batch tilts c are held fixed; the gradient is
    :func:`hyper_grad` on the batch, its bundle and c.  If the proposal is
    out of ``KernelParams``' range, or the factorization fails at it even
    after jitter escalation, the step is reverted and the Adam rate halved.

    Returns
    -------
    (KernelParams, GramBundle)
        The accepted parameters and the bundle for no rows holding the K_mm
        factorization at them: a new one, or ``state.mm`` on a revert.  The
        caller puts both into the state in one ``replace``.
    """
    grad = hyper_grad(state, dataset, batch, gram, c)
    try:
        proposal = KernelParams.from_array(state.params.as_array() + adam.step(grad))
        return proposal, build_gram(np.empty((0, dataset.d)), state.Z, proposal)
    except (ValueError, FactorizationError):  # ValueError: the proposal is out of range
        adam.lr *= 0.5
        return state.params, state.mm


def fit(dataset, config):
    """Train the sparse variational classifier by natural-gradient SVI.

    Each iteration draws a without-replacement mini-batch, takes the
    batch's tilts at their closed-form optimum, and takes a natural-gradient
    step of size rho on (eta1, eta2).  Every ``hyper_every`` iterations it
    then retakes the batch's tilts from the q(f) marginals at the new
    (mu, Sigma) that the bound estimate has just computed, and takes one
    Adam step on the kernel hyperparameters from the same batch bundle's
    n/s-scaled gradient, so an iteration costs O(s m^2 + m^3) whatever n is
    (plus the held-out or train-error scoring when requested).  K_mm is
    factorized once per hyperparameter value and held by the state as
    ``mm``; an accepted Adam step replaces ``params`` and ``mm`` in one
    ``replace``.  Convergence is a sliding-window average either of the
    relative natural-parameter change or, when ``config.heldout_frac`` holds
    rows out, of the relative held-out NLL change.  After the loop one blocked
    :func:`~pggpc.prediction.latent_predict` pass over the training rows
    gives the q(f) marginals, their optimal tilts and ``final_elbo``, so no
    bundle in ``fit`` has more rows than a mini-batch.  Unless
    ``config.inducing_Z`` gives them, the inducing inputs come from
    :func:`~pggpc.model.kmeanspp_init` on at most max(2000, 20 m) training
    rows drawn without replacement (all of them when n is at most that).

    Returns
    -------
    FitResult
        Trained state, the bound over every training row, the trace
        array with columns ``(iter, wall_seconds, elbo_estimate, rho)``
        (plus ``train_error`` when requested), and convergence info.
    """
    root = np.random.SeedSequence(config.seed)
    ss_init, ss_batch, ss_split = root.spawn(3)
    t0 = time.perf_counter()

    train = dataset
    heldout = None
    n_held = config.heldout_rows(dataset.n)
    if n_held:
        if n_held >= dataset.n:
            raise ValueError("heldout fraction leaves no training data")
        perm = np.random.default_rng(ss_split).permutation(dataset.n)
        heldout = dataset.subset(perm[:n_held])
        train = dataset.subset(perm[n_held:])

    params = config.init_params or KernelParams.default(train.d)
    rng = np.random.default_rng(ss_init)
    if config.inducing_Z is None:
        m = config.num_inducing
        if not 1 <= m <= train.n:
            raise ValueError(f"need 1 <= num_inducing <= n, got m={m}, n={train.n}")
        Z = kmeanspp_init(train.X, m, rng)
    else:
        Z = np.asarray(config.inducing_Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] != train.d:
            raise ValueError(
                f"inducing_Z must have shape (k, d) = (k, {train.d}) with k >= 1, got {Z.shape}"
            )
        if not np.isfinite(Z).all():
            raise ValueError(f"inducing_Z must be a finite (k, {train.d}) array, got NaN or Inf")
    state = init_state(Z, params)

    batch_size = min(config.batch_size, train.n)
    batches = minibatch_iter(train.n, batch_size, ss_batch)
    rate = AdaptiveRate()
    adam = AdamState(lr=config.adam_lr)
    window = deque(maxlen=CONV_WINDOW)
    threshold = config.conv_threshold if heldout is None else HELDOUT_THRESHOLD
    prev_heldout_nll = None
    trace_rows = []
    converged = False
    it = 0

    for it in range(1, config.max_iters + 1):
        batch = next(batches)
        idx = batch.indices
        gram_b = build_gram(train.X[idx], state.Z, state.params, mm=state.mm)
        c = local_update(state, gram_b)
        g1, G2 = natural_gradient(state, train, batch, gram_b, c)
        gvec = np.concatenate([g1, G2.ravel()])
        rho = rate.observe(gvec) if config.fixed_lr is None else float(config.fixed_lr)
        eta_norm = float(np.sqrt(state.eta1 @ state.eta1 + np.sum(state.eta2 * state.eta2)))
        state = global_step(state, g1, G2, rho)
        rel_change = rho * float(np.linalg.norm(gvec)) / (eta_norm + 1e-12)

        kmu, var = gram_b.marginals(state.mu, state.Sigma)
        est = elbo(state, train.y[idx], c, kmu, var, batch.scale)
        row = [float(it), time.perf_counter() - t0, est, float(rho)]
        if config.trace_train_error:
            row.append(evaluate(state, train).error_rate)
        trace_rows.append(row)

        if config.hyper_every and it % config.hyper_every == 0:
            c = _optimal_tilts(kmu, var)  # at the state just estimated
            new_params, new_mm = hyper_step(state, train, adam, batch, gram_b, c)
            state = replace(state, params=new_params, mm=new_mm)

        if heldout is None:
            window.append(rel_change)
        else:
            nll = evaluate(state, heldout).mean_nll
            if prev_heldout_nll is not None:
                window.append(abs(nll - prev_heldout_nll) / (abs(prev_heldout_nll) + 1e-12))
            prev_heldout_nll = nll
        if len(window) == CONV_WINDOW and np.mean(window) < threshold:
            converged = True
            break

    kmu, var = latent_predict(state, train.X)
    final_elbo = elbo(state, train.y, _optimal_tilts(kmu, var), kmu, var, 1.0)
    wall = time.perf_counter() - t0
    columns = TRACE_COLUMNS + (("train_error",) if config.trace_train_error else ())
    return FitResult(
        state=state,
        trace=np.array(trace_rows) if trace_rows else np.empty((0, len(columns))),
        trace_columns=columns,
        converged=converged,
        n_iters=it,
        wall_seconds=wall,
        final_elbo=final_elbo,
        heldout=heldout,
    )
