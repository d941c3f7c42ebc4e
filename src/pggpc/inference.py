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
from .kernel import FactorizationError, KernelParams, build_gram, factorize, kern_grad
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


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the SVI training loop; the one definition of their defaults.

    The defaults are the paper's benchmarking protocol, and the command line
    reads its defaults here.  ``heldout_frac`` picks the stopping rule:
    when it is None, training converges when the ``CONV_WINDOW`` average of
    the relative natural-parameter change drops below ``conv_threshold``;
    otherwise that fraction of the rows is held out, and training converges
    when the average relative held-out NLL change drops below
    ``HELDOUT_THRESHOLD``.  The step size is :class:`AdaptiveRate` when
    ``fixed_lr`` is None and the constant ``fixed_lr`` otherwise; m at or
    above the training rows is the full GP (Z = X).  Each count field must
    be an integer (not a bool).  It is frozen, as only construction
    validates it: ``dataclasses.replace`` gives a changed copy, validated again.
    """

    num_inducing: int = 100  # m < n: k-means++ on at most max(2000, 20 m) rows; m >= n: Z = X
    batch_size: int = 100
    max_iters: int = 1000
    conv_threshold: float = 1e-4
    fixed_lr: float | None = None  # None: the adaptive rate
    hyper_every: int = 10  # 0 disables hyperparameter optimization
    adam_lr: float = 0.02
    seed: int = 0
    heldout_frac: float | None = None  # None: the natural-parameter rule
    init_params: KernelParams | None = None

    def __post_init__(self):
        for name, low in (("num_inducing", 1), ("batch_size", 1), ("max_iters", 0),
                          ("hyper_every", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        if not self.conv_threshold >= 0.0:
            raise ValueError(f"conv_threshold must be nonnegative, got {self.conv_threshold}")
        if self.fixed_lr is not None and not 0.0 < self.fixed_lr <= 1.0:
            raise ValueError("fixed_lr must be in (0, 1]")
        if not 0.0 < self.adam_lr < np.inf:
            raise ValueError(f"adam_lr must be positive and finite, got {self.adam_lr}")
        if self.heldout_frac is not None and not 0.0 < self.heldout_frac < 1.0:
            raise ValueError(f"heldout_frac must be in (0, 1), got {self.heldout_frac}")

    @classmethod
    def full_gp(cls, dataset, params, max_iters, seed):
        """The full-GP fit the Gibbs oracle checks: m = n (Z = X), the full batch, unit
        steps and ``params`` held fixed, so ``state.mm`` is the chain's prior factorization."""
        return cls(num_inducing=dataset.n, batch_size=dataset.n, max_iters=max_iters,
                   conv_threshold=1e-10, fixed_lr=1.0, hyper_every=0, seed=seed,
                   init_params=params)


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit`; ``trace``'s columns are ``TRACE_COLUMNS``."""

    state: VariationalState
    trace: np.ndarray
    converged: bool
    n_iters: int
    wall_seconds: float
    final_elbo: float
    heldout: Dataset | None


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
    tr = float(np.vdot(B, state.Sigma))
    quad = float(state.mu @ B @ state.mu)
    data = 0.0
    for lo in range(0, y.shape[0], _ROW_BLOCK):
        b = slice(lo, lo + _ROW_BLOCK)
        th = theta(c[b])
        data += 0.5 * (y[b] @ kmu[b] - th @ (var[b] + kmu[b] * kmu[b])) - np.sum(pg_kl_term(c[b]))
    return float(0.5 * (state.logdet_Sigma - state.mm.logdet_Kmm - tr - quad) + scale * data)


def local_update(kmu, var):
    """Optimal tilts c_i = sqrt(var_i + kmu_i^2) at q(f) marginals (kmu, var).

    The marginals are ``GramRows.marginals`` of the rows at the state,
    Ktilde_ii + kappa_i Sigma kappa_i^T and kappa_i mu, or
    :func:`~pggpc.prediction.latent_predict`'s; the caller computes them
    once and reads them again for the bound, so the tilts cost no pass of
    their own.

    Returns
    -------
    ndarray
        The tilts of the rows, maximizing the bound at the marginals' q(u).
    """
    return np.sqrt(np.maximum(var + kmu * kmu, 0.0))


def natural_gradient(state, gram, y, c, scale):
    """Mini-batch natural gradient of the bound in (eta1, eta2).

    g1 = (n / 2s) kappa_S^T y_S - eta1
    G2 = -1/2 (K_mm^{-1} + (n/s) kappa_S^T Theta_S kappa_S) - eta2

    with Theta_S = diag(theta(c)) at the batch tilts c.  The data part is
    R^T R with R = (n Theta_S / 2s)^{1/2} kappa_S, which NumPy computes by
    SYRK, so it is exactly symmetric, and so is G2 when eta2 is; with the
    factorization's -1/2 K_mm^{-1}, G2 takes two m x m passes after it.
    The full-data gradient takes every row, its tilts and scale 1.0.

    Parameters
    ----------
    state : VariationalState
    gram : GramRows
        The batch rows against ``state.mm``.
    y : ndarray, shape (s,)
        Labels of the batch rows.
    c : ndarray, shape (s,)
        Tilts of the batch rows.
    scale : float
        n/s, which makes the batch's sums unbiased for the full-data ones.

    Returns
    -------
    (ndarray, ndarray)
        g1 of shape (m,) and G2 of shape (m, m).
    """
    kappa = gram.kappa
    g1 = 0.5 * scale * (kappa.T @ y) - state.eta1
    R = kappa * np.sqrt(0.5 * scale * theta(c))[:, None]
    G2 = R.T @ R
    np.subtract(state.mm.neg_half_Kmm_inv, G2, out=G2)
    G2 -= state.eta2
    return g1, G2


def global_step(state, g1, G2, rho):
    """Natural-gradient ascent step eta += rho * gradient; refreshes (mu, Sigma).

    For rho in (0, 1] the update is a convex combination of two negative
    definite precisions, so -2 eta2 stays SPD; a Cholesky failure here
    signals a bug rather than a data condition.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"learning rate must lie in [0, 1], got {rho}")
    return state.with_natural(state.eta1 + rho * g1, state.eta2 + rho * G2)


def _sq_norm(*arrays):
    """Squared Euclidean norm of the arrays' entries taken together."""
    return sum(float(np.vdot(a, a)) for a in arrays)


class AdaptiveRate:
    """Stochastic-gradient-statistics learning rate.

    Maintains moving averages gbar of the natural gradient, given in parts
    such as (g1, G2), and h of its squared norm over an adaptive window
    tau, and returns rho = ||gbar||^2 / h clamped to (1e-6, 1].  The window
    grows when the gradient signal-to-noise is low (tau <- tau (1 - rho) + 1).
    The first few observations use plain running averages.  :func:`fit` uses it unless
    ``TrainConfig.fixed_lr`` sets a constant step.
    """

    def __init__(self):
        self._tau = _RATE_TAU0
        self._gbar = None  # the first observation sets the parts' shapes
        self._h = 0.0
        self._count = 0
        self.sq_norm = 0.0  # ||g||^2 of the last observation

    def observe(self, *grads):
        """Record one gradient, in one or more parts, and return the step size to use.

        The parts are read in place, not joined; their squared norm is left
        in ``sq_norm``.
        """
        self._count += 1
        grads = [np.asarray(g, dtype=float) for g in grads]
        w = 1.0 / (self._count if self._count <= _RATE_BURN_IN else self._tau)
        if self._count == 1:
            self._gbar = [np.zeros_like(g) for g in grads]
        for gbar, g in zip(self._gbar, grads):
            gbar *= 1.0 - w
            gbar += w * g
        self.sq_norm = _sq_norm(*grads)
        self._h = (1.0 - w) * self._h + w * self.sq_norm
        rho = 1.0 if self._h <= 0.0 else _sq_norm(*self._gbar) / self._h
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


def hyper_grad(state, gram, y, c, scale):
    """Mini-batch gradient of the bound in (log l, log a, log jitter).

    Differentiates the bound through K_mm, kappa, and Ktilde while holding
    (mu, Sigma) and the batch tilts c fixed; the batch is given as in
    :func:`natural_gradient`.  With B = K_mm^{-1}, mu~ = B mu,
    M = Sigma + mu mu^T and Theta = diag(theta(c)), the bound's derivative
    against any kernel perturbation (dK_mm, dK_nm, dk_diag) is

        <P_K, dK_mm> + <P_A, dK_nm> + p_diag . dk_diag

    where
        P_K = -B/2 + B Sigma B / 2 + mu~ mu~^T / 2 - (kappa^T y) mu~^T / 2
              - kappa^T Theta kappa / 2 + kappa^T Theta kappa M B
        P_A = y mu~^T / 2 + Theta kappa - Theta kappa M B
        p_diag = -theta / 2,

    contracted with the derivatives at ``state.mm`` and the batch rows by
    :func:`~pggpc.kernel.kern_grad`.  The data parts (kappa^T y and
    kappa^T Theta kappa in P_K, all of P_A and p_diag) are scaled by n/s, so
    the estimate is unbiased for the full-data gradient (every row, scale
    1.0); the Gaussian KL part is exact.  P_K and P_A are formed in
    factored form: with MB = M B and W = Theta kappa MB - (Theta kappa + y mu~^T) / 2,

        P_K = (B MB - B) / 2 + (n/s) kappa^T W,    P_A = (n/s) (Theta kappa / 2 - W),

    two m^3 products (MB, B MB) and two s m^2 ones (Theta kappa MB, kappa^T W).

    Returns
    -------
    ndarray, shape (3,)
        Ordered as KernelParams.as_array().
    """
    B, mu = state.mm.Kmm_inv, state.mu
    MB = (state.Sigma + np.outer(mu, mu)) @ B
    th = theta(c)
    Tk = gram.kappa * th[:, None]
    W = Tk @ MB - 0.5 * (Tk + np.outer(y, B @ mu))
    P_K = 0.5 * (B @ MB - B) + scale * (gram.kappa.T @ W)
    P_A = scale * (0.5 * Tk - W)
    return kern_grad(state.mm, gram, P_K, P_A, -0.5 * scale * th)


def hyper_step(state, adam, gram, y, c, scale):
    """One Adam ascent step on the kernel hyperparameters.

    q(u) and the batch tilts c are held fixed; the gradient is
    :func:`hyper_grad` on the batch.  If the proposal is out of
    ``KernelParams``' range, or the factorization fails at it even after
    jitter escalation, the step is reverted and the Adam rate halved.

    Returns
    -------
    (KernelParams, VariationalState)
        The accepted parameters and the next state: ``state`` with q(u)
        kept and the K_mm factorization at ``state.Z`` and the new
        parameters, or ``state`` itself on a revert.
    """
    grad = hyper_grad(state, gram, y, c, scale)
    try:
        mm = factorize(state.Z, KernelParams.from_array(state.params.as_array() + adam.step(grad)))
    except (ValueError, FactorizationError):  # ValueError: the proposal is out of range
        adam.lr *= 0.5
        return state.params, state
    return mm.params, replace(state, mm=mm)


def fit(dataset, config):
    """Train the sparse variational classifier by natural-gradient SVI.

    Each iteration draws the row indices S of a without-replacement
    mini-batch (the last of an epoch may be short), reads its labels,
    n/|S| and Gram rows once, computes its q(f) marginals once, takes from
    them the batch's tilts at their closed-form optimum and the trace's
    bound estimate, and takes a natural-gradient step of size rho on (eta1,
    eta2).  Every ``hyper_every`` iterations it then retakes the batch's
    tilts from the marginals at the new (mu, Sigma) and takes one Adam step
    on the kernel hyperparameters from the same batch rows' n/|S|-scaled
    gradient, so an iteration costs O(s m^2 + m^3) whatever n is (plus the
    held-out scoring when requested).  K_mm is factorized once per
    hyperparameter value and held by the state as ``mm``, which carries Z
    and the parameters; :func:`hyper_step` returns the state with the
    accepted step's ``mm``.  Convergence is a sliding-window average either
    of the relative natural-parameter change or, when
    ``config.heldout_frac`` holds rows out, of the relative held-out NLL
    change.  After the loop one blocked
    :func:`~pggpc.prediction.latent_predict` pass over the training rows
    gives the q(f) marginals, their optimal tilts and ``final_elbo``, so no
    ``build_gram`` in ``fit`` takes more rows than a mini-batch.  m is capped
    at the n training rows, as the batch size is: at m = n the inducing
    inputs are the training rows, in row order (the full GP); for m < n they
    come from :func:`~pggpc.model.kmeanspp_init` on at most max(2000, 20 m)
    training rows drawn without replacement (all of them when n is at most that).

    Returns
    -------
    FitResult
        Trained state, the bound over every training row, the trace array
        with columns ``TRACE_COLUMNS``, and convergence info.  The
        ``elbo_estimate`` of row t is the batch bound (data terms scaled by
        n/|S|) at the state entering iteration t, with that batch's optimal
        tilts; ``wall_seconds`` is read after the iteration's step.
    """
    root = np.random.SeedSequence(config.seed)
    ss_init, ss_batch, ss_split = root.spawn(3)
    t0 = time.perf_counter()

    train = dataset
    heldout = None
    if config.heldout_frac is not None:
        n_held = max(1, int(round(dataset.n * config.heldout_frac)))
        if n_held >= dataset.n:
            raise ValueError("heldout fraction leaves no training data")
        perm = np.random.default_rng(ss_split).permutation(dataset.n)
        heldout = dataset.subset(perm[:n_held])
        train = dataset.subset(perm[n_held:])

    m = min(config.num_inducing, train.n)
    Z = train.X if m == train.n else kmeanspp_init(train.X, m, np.random.default_rng(ss_init))
    state = init_state(Z, config.init_params or KernelParams.default(train.d))

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
        idx = next(batches)
        y, scale = train.y[idx], train.n / idx.size
        gram_b = build_gram(train.X[idx], state.mm)
        kmu, var = gram_b.marginals(state.mu, state.Sigma)
        c = local_update(kmu, var)
        est = elbo(state, y, c, kmu, var, scale)
        g1, G2 = natural_gradient(state, gram_b, y, c, scale)
        if config.fixed_lr is None:
            rho, g_sq = rate.observe(g1, G2), rate.sq_norm
        else:
            rho, g_sq = float(config.fixed_lr), _sq_norm(g1, G2)
        eta_norm = np.sqrt(_sq_norm(state.eta1, state.eta2))
        state = global_step(state, g1, G2, rho)
        rel_change = rho * np.sqrt(g_sq) / (eta_norm + 1e-12)

        trace_rows.append([float(it), time.perf_counter() - t0, est, float(rho)])

        if config.hyper_every and it % config.hyper_every == 0:
            c = local_update(*gram_b.marginals(state.mu, state.Sigma))  # at the new q(u)
            state = hyper_step(state, adam, gram_b, y, c, scale)[1]

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
    final_elbo = elbo(state, train.y, local_update(kmu, var), kmu, var, 1.0)
    wall = time.perf_counter() - t0
    return FitResult(
        state=state,
        trace=np.array(trace_rows) if trace_rows else np.empty((0, len(TRACE_COLUMNS))),
        converged=converged,
        n_iters=it,
        wall_seconds=wall,
        final_elbo=final_elbo,
        heldout=heldout,
    )
