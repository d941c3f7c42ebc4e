"""Acceptance suite: twelve end-to-end guarantees of the library.

Each test prints one PASS/FAIL line (bypassing pytest's capture) so a
plain run yields a visible scorecard.  The two benchmark-dataset tests
skip with an explanatory line when the LIBSVM files have not been
fetched; everything else is self-contained and deterministic.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.special import expit as sigmoid

from pggpc.data import MiniBatch, kfold, load, standardize
from pggpc.gibbs import compare_to_vi, gibbs_run
from pggpc.inference import (
    AdaptiveRate,
    TrainConfig,
    fit,
    global_step,
    local_update,
    natural_gradient,
)
from pggpc.kernel import KernelParams, build_gram, kern_matrix
from pggpc.model import Dataset, VariationalState, init_state, kmeanspp_init
from pggpc.pg import log_cosh, pg_kl_term, pg_sample
from pggpc.prediction import class_prob, evaluate

from oracles import (
    bundle,
    elbo_grad_mu,
    elbo_grad_sigma,
    elbo_kappa_form,
    every_row,
    full_elbo,
    gibbs_mackay_bound,
    pg_mean,
    tilts,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
DIABETES = os.path.join(DATA_DIR, "diabetes_scale")
GERMAN = os.path.join(DATA_DIR, "german.numer")


@pytest.fixture
def scorecard(capsys, request):
    """Print one always-visible PASS/FAIL line for this test."""

    def emit(passed, detail=""):
        label = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {label} {request.node.name}: {detail}")

    return emit


def _skip_missing(capsys, request, path):
    if not os.path.exists(path):
        with capsys.disabled():
            print(
                f"[acceptance] SKIP {request.node.name}: {os.path.basename(path)} "
                "not present (offline environment); run scripts/fetch_datasets.py "
                "and re-run"
            )
        pytest.skip(f"benchmark dataset {path} not available")


def _random_instance(seed, n=8, m=3):
    """A small problem with a non-trivial posterior state, and its optimal tilts."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    ds = Dataset(X, y)
    params = KernelParams(log_lengthscale=float(np.log(1.2)))
    Z = rng.normal(size=(m, 2))
    B = rng.normal(size=(m, m))
    Sigma = B @ B.T + 0.5 * np.eye(m)
    mu = rng.normal(size=m)
    state = VariationalState.from_natural(
        np.linalg.solve(Sigma, mu), -0.5 * np.linalg.inv(Sigma), Z, params
    )
    return ds, state, tilts(state, ds.X)


def _separable_blobs(n, seed=0, spread=0.7, gap=1.5):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate(
        [rng.normal(-gap, spread, size=(half, 2)), rng.normal(gap, spread, size=(n - half, 2))]
    )
    y = np.concatenate([-np.ones(half), np.ones(n - half)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order])


def test_c01_euclidean_gradients_match_finite_differences(scorecard):
    start = time.monotonic()
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        ds, state, c = _random_instance(seed)
        gram = bundle(state, ds.X)
        analytic = [elbo_grad_mu(state, ds, c, gram)]
        numeric = []
        for i in range(state.m):
            e = np.eye(state.m)[i]
            sp, sm = replace(state, mu=state.mu + h * e), replace(state, mu=state.mu - h * e)
            numeric.append((full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h))
        gS = elbo_grad_sigma(state, ds, c, gram)
        for i in range(state.m):
            for j in range(i, state.m):
                D = np.zeros((state.m, state.m))
                D[i, j] = D[j, i] = 1.0
                sp = replace(state, Sigma=state.Sigma + h * D)
                sm = replace(state, Sigma=state.Sigma - h * D)
                numeric.append((full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h))
                analytic.append(float(np.sum(gS * D)))
        vec_an = np.concatenate([np.atleast_1d(a).ravel() for a in analytic])
        vec_fd = np.asarray(numeric)
        rel = np.linalg.norm(vec_fd - vec_an) / np.linalg.norm(vec_fd)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0
    scorecard(ok, f"worst relative gradient error {worst:.2e} over 20 instances "
                  f"in {elapsed:.2f}s (tol 1e-5 within 10s)")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_elbo_matches_kappa_form_on_c01_instances():
    # full_elbo reads its marginals from the blocked predictive pass; the
    # reference reads them from a bundle over every row.
    for seed in range(20):
        ds, state, c = _random_instance(seed)
        assert full_elbo(state, ds, c) == pytest.approx(elbo_kappa_form(state, ds, c), rel=1e-12)


def test_c02_natural_gradient_equals_transformed_euclidean(scorecard):
    worst = 0.0
    for seed in range(20):
        ds, state, c = _random_instance(seed)
        g1, G2 = natural_gradient(state, ds, every_row(ds), bundle(state, ds.X), c)
        gmu = elbo_grad_mu(state, ds, c)
        gS = elbo_grad_sigma(state, ds, c)
        worst = max(
            worst,
            float(np.max(np.abs(g1 - (gmu - 2.0 * gS @ state.mu)))),
            float(np.max(np.abs(G2 - gS))),
        )
    ok = worst < 1e-8
    scorecard(ok, f"worst identity mismatch {worst:.2e} over 20 instances (tol 1e-8)")
    assert ok


def test_c03_unit_step_lands_on_coordinate_ascent_optimum(scorecard):
    worst_hit = 0.0
    worst_drift = 0.0
    for seed in range(10):
        ds, state, c = _random_instance(seed, n=16, m=4)
        batch = every_row(ds)
        gram = bundle(state, ds.X)
        g1, G2 = natural_gradient(state, ds, batch, gram, c)
        stepped = global_step(state, g1, G2, rho=1.0)

        th = np.tanh(0.5 * c) / (2.0 * c)
        target1 = 0.5 * gram.kappa.T @ ds.y
        target2 = -0.5 * (gram.Kmm_inv + gram.kappa.T @ (th[:, None] * gram.kappa))
        worst_hit = max(
            worst_hit,
            float(np.max(np.abs(stepped.eta1 - target1))),
            float(np.max(np.abs(stepped.eta2 - target2))),
        )

        again = global_step(stepped, *natural_gradient(stepped, ds, batch, gram, c), rho=1.0)
        worst_drift = max(
            worst_drift,
            float(np.max(np.abs(again.eta1 - stepped.eta1))),
            float(np.max(np.abs(again.eta2 - stepped.eta2))),
        )
    ok = worst_hit < 1e-10 and worst_drift < 1e-10
    scorecard(ok, f"optimum reached to {worst_hit:.2e}, repeat step drifts "
                  f"{worst_drift:.2e} (tol 1e-10)")
    assert ok


def test_c04_full_batch_alternation_never_decreases_the_bound(scorecard):
    ds = _separable_blobs(50, seed=4, spread=1.0)
    config = TrainConfig(
        num_inducing=8,
        batch_size=50,
        max_iters=200,
        conv_threshold=0.0,
        fixed_lr=1.0,
        hyper_every=0,
        seed=0,
    )
    result = fit(ds, config)
    elbo_trace = result.trace[:, 2]
    diffs = np.diff(elbo_trace)
    ok = elbo_trace.size == 200 and bool(np.all(diffs > -1e-9))
    scorecard(ok, f"min ELBO increment {diffs.min():+.2e} over {elbo_trace.size} "
                  "full-batch iterations on n=50 (slack 1e-9)")
    assert ok


def test_c05_covariance_precision_stays_choleskyable_for_10000_steps(scorecard):
    ds = _separable_blobs(200, seed=5, spread=1.2)
    rng = np.random.default_rng(0)
    Z = kmeanspp_init(ds.X, 8, rng)
    state = init_state(Z, KernelParams(0.0))
    rate = AdaptiveRate()
    checked = 0
    for _ in range(10_000):
        idx = rng.choice(ds.n, size=20, replace=False)
        batch = MiniBatch(indices=idx, scale=ds.n / idx.size)
        gram_b = build_gram(ds.X[idx], state.Z, state.params, mm=state.mm)
        g1, G2 = natural_gradient(state, ds, batch, gram_b, local_update(state, gram_b))
        rho = rate.observe(np.concatenate([g1, G2.ravel()]))
        state = global_step(state, g1, G2, rho)
        np.linalg.cholesky(-2.0 * state.eta2)  # raises LinAlgError on failure
        checked += 1
    ok = checked == 10_000
    scorecard(ok, f"-2 eta2 passed Cholesky after {checked} stochastic updates")
    assert ok


def test_c06_bound_identity_two_routes_agree(scorecard):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        f = rng.normal(scale=2.0, size=7)
        c = np.abs(rng.normal(scale=2.0, size=7)) + rng.choice([0.0, 1e-8, 1.0], size=7)
        y = np.where(rng.random(7) < 0.5, -1.0, 1.0)
        a, b = gibbs_mackay_bound(f, c, y)
        worst = max(worst, abs(a - b))
    ok = worst < 1e-10
    scorecard(ok, f"max |route_a - route_b| = {worst:.2e} over 100 random "
                  "(f, c, y) triples of size 7 (tol 1e-10)")
    assert ok


def test_c07_sampler_mean_mgf_and_kl_match_closed_forms(scorecard):
    rng = np.random.default_rng(20260814)
    n_draws = 1_000_000
    failures = []
    details = []

    for c in (0.0, 0.5, 2.0, 10.0):
        draws = pg_sample(np.full(n_draws, c), rng)
        se = draws.std(ddof=1) / np.sqrt(n_draws)
        gap = abs(draws.mean() - pg_mean(1, c))
        details.append(f"mean(c={c:g}) {gap / se:.2f}se")
        if gap > 3.0 * se:
            failures.append(f"mean at c={c}")
        if c == 0.0:
            for t in (0.1, 1.0, 4.0):
                emp = np.exp(-t * draws)
                se_t = emp.std(ddof=1) / np.sqrt(n_draws)
                closed = 1.0 / np.cosh(np.sqrt(0.5 * t))
                gap_t = abs(emp.mean() - closed)
                details.append(f"mgf(t={t:g}) {gap_t / se_t:.2f}se")
                if gap_t > 3.0 * se_t:
                    failures.append(f"mgf at t={t}")
        if c == 2.0:
            emp = np.exp(-1.0 * draws)
            se_t = emp.std(ddof=1) / np.sqrt(n_draws)
            closed = np.cosh(1.0) / np.cosh(np.sqrt(1.5))
            if abs(emp.mean() - closed) > 3.0 * se_t:
                failures.append("tilted mgf at c=2, t=1")

    c = 3.0
    draws = pg_sample(np.full(n_draws, c), rng)
    mc_kl = log_cosh(0.5 * c) - 0.5 * c**2 * draws.mean()
    se_kl = 0.5 * c**2 * draws.std(ddof=1) / np.sqrt(n_draws)
    gap_kl = abs(mc_kl - pg_kl_term(c))
    details.append(f"kl(c=3) {gap_kl / se_kl:.2f}se")
    if gap_kl > 3.0 * se_kl:
        failures.append("kl term at c=3")

    ok = not failures
    scorecard(ok, "all sampler statistics within 3 SE at 1e6 draws ["
                  + ", ".join(details) + "]" if ok else "violations: " + ", ".join(failures))
    assert ok, failures


def _full_gp_agreement(ds, params, sweeps, burn_in, vi_iters, seed):
    config = TrainConfig(
        num_inducing=ds.n,
        batch_size=ds.n,
        max_iters=vi_iters,
        conv_threshold=1e-10,
        fixed_lr=1.0,
        hyper_every=0,
        seed=seed,
        init_params=params,
        inducing_Z=ds.X,
    )
    result = fit(ds, config)
    chain = gibbs_run(ds, params, iters=sweeps, burn_in=burn_in, thin=2, seed=seed)
    return compare_to_vi(chain, result.state, ds)


def test_c08a_variational_fit_matches_long_gibbs_chain_synthetic(scorecard):
    ds = _separable_blobs(50, seed=8, spread=1.1, gap=1.2)
    params = KernelParams(log_lengthscale=0.5 * float(np.log(2.0)))
    report = _full_gp_agreement(ds, params, sweeps=6000, burn_in=1000,
                                vi_iters=300, seed=0)
    ok = report.mean_corr > 0.99 and report.mean_abs_prob_gap < 0.05
    scorecard(ok, f"n=50 synthetic full GP: mean corr {report.mean_corr:.4f} "
                  f"(>0.99), mean |p_vi - p_mcmc| {report.mean_abs_prob_gap:.4f} (<0.05)")
    assert ok


def test_c08b_variational_fit_matches_long_gibbs_chain_diabetes(scorecard, capsys, request):
    _skip_missing(capsys, request, DIABETES)
    ds, _ = standardize(load(DIABETES, "libsvm"))
    params = KernelParams(log_lengthscale=0.5 * float(np.log(ds.d)))
    report = _full_gp_agreement(ds, params, sweeps=5000, burn_in=1000,
                                vi_iters=300, seed=0)
    ok = report.mean_corr > 0.99 and report.mean_abs_prob_gap < 0.05
    scorecard(ok, f"diabetes n={ds.n} full GP: mean corr {report.mean_corr:.4f} "
                  f"(>0.99), mean |p_vi - p_mcmc| {report.mean_abs_prob_gap:.4f} (<0.05)")
    assert ok


def _tenfold_benchmark(ds, seed=0):
    fold_seeds = np.random.default_rng(seed).integers(2**31, size=10)
    errors, nlls = [], []
    for i, (train_idx, test_idx) in enumerate(kfold(ds.n, 10, seed)):
        train = Dataset(ds.X[train_idx], ds.y[train_idx])
        test = Dataset(ds.X[test_idx], ds.y[test_idx])
        train, scaler = standardize(train)
        test = scaler.apply_dataset(test)
        config = TrainConfig(num_inducing=100, batch_size=100,
                             max_iters=1000, seed=int(fold_seeds[i]))
        result = fit(train, config)
        report = evaluate(result.state, test)
        errors.append(report.error_rate)
        nlls.append(report.mean_nll)
    return float(np.mean(errors)), float(np.mean(nlls))


def test_c09a_diabetes_tenfold_error_and_nll_in_published_band(scorecard, capsys, request):
    _skip_missing(capsys, request, DIABETES)
    ds = load(DIABETES, "libsvm")
    error, nll = _tenfold_benchmark(ds)
    ok = abs(error - 0.23) <= 0.07 and abs(nll - 0.47) <= 0.11
    scorecard(ok, f"diabetes 10-fold m=100: error {error:.3f} (0.23 +/- 0.07), "
                  f"nll {nll:.3f} (0.47 +/- 0.11)")
    assert ok


def test_c09b_german_tenfold_error_and_nll_in_published_band(scorecard, capsys, request):
    _skip_missing(capsys, request, GERMAN)
    ds = load(GERMAN, "libsvm")
    error, nll = _tenfold_benchmark(ds)
    ok = abs(error - 0.25) <= 0.12 and abs(nll - 0.44) <= 0.17
    scorecard(ok, f"german 10-fold m=100: error {error:.3f} (0.25 +/- 0.12), "
                  f"nll {nll:.3f} (0.44 +/- 0.17)")
    assert ok


def test_c10_quadrature_matches_monte_carlo_and_is_order_converged(scorecard):
    rng = np.random.default_rng(10)
    z = rng.standard_normal(500_000)  # antithetic pairs -> 1e6 samples/point
    worst_mc = 0.0
    for mu in np.linspace(-5.0, 5.0, 11):
        for sd in np.linspace(0.1, 5.0, 7):
            p_mc = 0.5 * (np.mean(sigmoid(mu + sd * z)) + np.mean(sigmoid(mu - sd * z)))
            worst_mc = max(worst_mc, abs(float(class_prob(mu, sd**2)) - p_mc))

    worst_order = 0.0
    mus = np.linspace(-5.0, 5.0, 21)
    for sd in np.linspace(0.1, 5.0, 25):
        gap = np.abs(class_prob(mus, sd**2, order=20) - class_prob(mus, sd**2, order=100))
        worst_order = max(worst_order, float(gap.max()))

    ok = worst_mc < 1e-3 and worst_order < 1e-6
    scorecard(ok, f"max |Q20 - MC(1e6)| = {worst_mc:.2e} (tol 1e-3); "
                  f"max |Q20 - Q100| = {worst_order:.2e} (tol 1e-6)")
    assert worst_mc < 1e-3
    assert worst_order < 1e-6


def _log_marginal_dense(ds, params, nodes=50):
    """Tensor-product quadrature of the exact log marginal (n <= 3)."""
    K = kern_matrix(ds.X, ds.X, params, same=True)
    L = cholesky(K, lower=True)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([x] * ds.n), indexing="ij")
    U = np.sqrt(2.0) * np.stack([g.ravel() for g in grids], axis=1)
    vals = np.prod(sigmoid(ds.y * (U @ L.T)), axis=1)
    wgrids = np.meshgrid(*([w] * ds.n), indexing="ij")
    W = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return float(np.log(W @ vals) - 0.5 * ds.n * np.log(np.pi))


def _log_marginal_mc(ds, params, draws=1_000_000, seed=0, chunk=250_000):
    """Prior Monte Carlo estimate of the log marginal likelihood."""
    K = kern_matrix(ds.X, ds.X, params, same=True)
    L = cholesky(K, lower=True)
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < draws:
        size = min(chunk, draws - done)
        F = rng.standard_normal((size, ds.n)) @ L.T
        total += float(np.sum(np.prod(sigmoid(ds.y * F), axis=1)))
        done += size
    return float(np.log(total / draws))


def test_c11_trained_bound_stays_below_brute_force_log_marginal(scorecard):
    params = KernelParams(log_lengthscale=float(np.log(1.2)))
    gaps = []
    for n, seed in ((2, 0), (3, 1), (8, 2), (12, 3)):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(n, 2)),
                     np.where(rng.random(n) < 0.5, -1.0, 1.0))
        config = TrainConfig(
            num_inducing=n, batch_size=n, max_iters=500, conv_threshold=1e-12,
            fixed_lr=1.0, hyper_every=0, seed=0,
            init_params=params, inducing_Z=ds.X,
        )
        result = fit(ds, config)
        bound = full_elbo(result.state, ds, tilts(result.state, ds.X), include_constants=True)
        if n <= 3:
            log_p = _log_marginal_dense(ds, params)
        else:
            log_p = _log_marginal_mc(ds, params, seed=seed)
        gaps.append(log_p - bound)
    gaps = np.asarray(gaps)
    ok = bool(np.all(gaps >= -1e-6))
    scorecard(ok, "log p(y) - elbo gaps "
                  + ", ".join(f"{g:+.4f}" for g in gaps)
                  + " at n=2,3,8,12; all >= -1e-6")
    assert ok


def _wavy_synthetic(n, seed):
    """A boundary with sub-lengthscale wiggle, so capacity grows with m."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(n, 2))
    margin = X[:, 1] - 1.2 * np.sin(2.2 * X[:, 0])
    y = np.where(margin > 0.0, 1.0, -1.0)
    flip = rng.random(n) < 0.02
    y[flip] = -y[flip]
    return Dataset(X, y)


def test_c12_cv_error_non_increasing_in_inducing_count(scorecard):
    ds = _wavy_synthetic(5000, seed=12)
    folds = kfold(ds.n, 5, seed=0)
    m_grid = (16, 32, 64, 128)
    mean_errors = []
    for m in m_grid:
        fold_errors = []
        for i, (train_idx, test_idx) in enumerate(folds):
            train = Dataset(ds.X[train_idx], ds.y[train_idx])
            test = Dataset(ds.X[test_idx], ds.y[test_idx])
            config = TrainConfig(num_inducing=m, batch_size=100, max_iters=250,
                                 hyper_every=0, seed=1000 * m + i)
            result = fit(train, config)
            fold_errors.append(evaluate(result.state, test).error_rate)
        mean_errors.append(float(np.mean(fold_errors)))
    steps = np.diff(mean_errors)
    ok = bool(np.all(steps <= 0.02))
    scorecard(ok, "cv error by m "
                  + ", ".join(f"m={m}: {e:.4f}" for m, e in zip(m_grid, mean_errors))
                  + " (each step must not rise above +0.02)")
    assert ok
