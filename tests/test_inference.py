"""Tests for the bound, local/global updates, learning rates, and training."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.special import expit as sigmoid

import pggpc.inference as inference
import pggpc.kernel as kernel
import pggpc.model as model
from pggpc.data import MiniBatch, minibatch_iter
from pggpc.inference import (
    AdamState,
    AdaptiveRate,
    FitResult,
    TrainConfig,
    elbo,
    fit,
    global_step,
    hyper_grad,
    hyper_step,
    local_update,
    natural_gradient,
)
from pggpc.kernel import FactorizationError, GramBundle, KernelParams, build_gram, kern_grad
from pggpc.model import Dataset, init_state
from pggpc.prediction import _ROW_BLOCK, class_prob, latent_predict

from oracles import (
    at_params,
    bundle,
    elbo_grad_mu,
    elbo_grad_sigma,
    elbo_kappa_form,
    every_row,
    full_elbo,
    gauss_part,
    gibbs_mackay_bound,
    prior_state,
    tilts,
)

ELBO_ONE_POINT = -0.62011450695827752463  # unit kernel, y=+1, prior state, c=1


def _toy_problem(n=30, d=2, m=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0, 1.0, -1.0)
    ds = Dataset(X=X, y=y)
    state = prior_state(ds, m, KernelParams(0.0), rng)
    return ds, state


def _warmed_state(ds, state, steps=3, rho=0.5):
    """The state moved off the prior, so gradients are non-trivial, and its optimal tilts."""
    for _ in range(steps):
        gram = bundle(state, ds.X)
        g1, G2 = natural_gradient(state, ds, every_row(ds), gram, local_update(state, gram))
        state = global_step(state, g1, G2, rho)
    return state, tilts(state, ds.X)


def test_elbo_one_point_reference_value():
    # Unit problem: K = [[1]] (the jitter e^-60 vanishes against 1 in float64),
    # y = +1, q at the prior, c at its optimum
    # sqrt(Ktilde + kappa Sigma kappa + (kappa mu)^2) = 1.
    ds = Dataset(X=np.zeros((1, 1)), y=np.array([1.0]))
    params = KernelParams(0.0, log_jitter=-60.0)
    Z = np.zeros((1, 1))
    state = init_state(Z, params)
    np.testing.assert_array_equal(state.Sigma, np.eye(1))
    c = tilts(state, ds.X)
    np.testing.assert_allclose(c, [1.0], rtol=1e-12)
    assert full_elbo(state, ds, c) == pytest.approx(ELBO_ONE_POINT, rel=1e-13)


def test_elbo_matches_kappa_form_over_several_row_blocks():
    ds, state = _toy_problem(n=2 * _ROW_BLOCK + 3, m=8, seed=4)
    state, c = _warmed_state(ds, state)
    assert full_elbo(state, ds, c) == pytest.approx(elbo_kappa_form(state, ds, c), rel=1e-12)


def test_elbo_constants_shift():
    ds, state = _toy_problem()
    c = tilts(state, ds.X)
    base = full_elbo(state, ds, c)
    with_const = full_elbo(state, ds, c, include_constants=True)
    shift = 0.5 * state.m - ds.n * np.log(2.0)
    assert with_const == pytest.approx(base + shift, rel=1e-12)


def test_elbo_requires_current_tilts():
    ds, state = _toy_problem()
    for c in (np.ones(ds.n - 1), np.ones((ds.n, 1))):
        with pytest.raises(ValueError, match="tilt"):
            full_elbo(state, ds, c)


def test_gauss_part_is_negative_kl_zero_at_prior():
    # At the prior q = N(0, K_mm), the Gaussian term (elbo over no rows)
    # must be exactly -m/2 (the constant full_elbo's include_constants adds back).
    ds, state = _toy_problem(m=4)
    assert gauss_part(state) == pytest.approx(-2.0, rel=1e-10)


def test_elbo_scales_the_data_terms_only():
    ds, state = _toy_problem(n=12, m=3, seed=3)
    state, c = _warmed_state(ds, state)
    gram = bundle(state, ds.X)
    rows = (ds.y, c, *gram.marginals(state.mu, state.Sigma))
    gauss = gauss_part(state)
    data = elbo(state, *rows, 1.0) - gauss
    assert data == pytest.approx(full_elbo(state, ds, c) - gauss, rel=1e-12)
    assert elbo(state, *rows, 3.0) - gauss == pytest.approx(3.0 * data, rel=1e-12)


def test_fit_assembles_every_bound_through_elbo(monkeypatch):
    ds, _ = _toy_problem(n=30)
    scales, values = [], []

    def recording(*args):
        scales.append(args[-1])
        values.append(elbo(*args))
        return values[-1]

    monkeypatch.setattr(inference, "elbo", recording)
    res = fit(ds, TrainConfig(num_inducing=4, batch_size=10, max_iters=7, conv_threshold=0.0))
    assert scales == [3.0] * res.n_iters + [1.0]
    np.testing.assert_array_equal(res.trace[:, 2], values[:-1])
    assert res.final_elbo == values[-1]


def test_local_update_is_coordinatewise_optimal():
    ds, state = _toy_problem(n=12, m=3, seed=1)
    state, c = _warmed_state(ds, state)
    base = full_elbo(state, ds, c)
    for i in [0, 5, 11]:
        for delta in [-0.05, 0.05]:
            perturbed = c.copy()
            perturbed[i] += delta
            assert full_elbo(state, ds, perturbed) < base


def test_local_update_subset_matches_full():
    ds, state = _toy_problem(n=20, m=4, seed=2)
    state, _ = _warmed_state(ds, state)
    full = local_update(state, bundle(state, ds.X))
    idx = np.array([3, 7, 15])
    sub = local_update(state, bundle(state, ds.X[idx]))
    np.testing.assert_allclose(sub, full[idx], rtol=1e-12)


def test_natural_gradient_matches_dense_formulas():
    ds, state = _toy_problem(n=25, m=4, seed=3)
    state, c = _warmed_state(ds, state)
    gram = bundle(state, ds.X)
    g1, G2 = natural_gradient(state, ds, every_row(ds), gram, c)

    K_mm = build_gram(ds.X, state.Z, state.params).K_mm
    kappa = build_gram(ds.X, state.Z, state.params).kappa
    th = np.tanh(0.5 * c) / (2.0 * c)
    g1_ref = 0.5 * kappa.T @ ds.y - state.eta1
    G2_ref = -0.5 * (np.linalg.inv(K_mm) + kappa.T @ np.diag(th) @ kappa) - state.eta2
    np.testing.assert_allclose(g1, g1_ref, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(G2, G2_ref, rtol=1e-7, atol=1e-9)
    np.testing.assert_array_equal(G2, G2.T)


def test_gradients_use_the_tilts_they_are_given():
    # Away from the optimal tilts, natural_gradient is the dense formula and
    # hyper_grad the finite difference of the bound at the tilts passed in.
    ds, state = _toy_problem(n=14, m=4, seed=14)
    state, c_opt = _warmed_state(ds, state)
    c = 1.7 * c_opt + 0.3
    gram = bundle(state, ds.X)
    g1, G2 = natural_gradient(state, ds, every_row(ds), gram, c)
    th = np.tanh(0.5 * c) / (2.0 * c)
    G2_ref = -0.5 * (np.linalg.inv(gram.K_mm) + gram.kappa.T @ np.diag(th) @ gram.kappa)
    np.testing.assert_allclose(g1, 0.5 * gram.kappa.T @ ds.y - state.eta1, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(G2, G2_ref - state.eta2, rtol=1e-7, atol=1e-9)
    assert not np.allclose(G2, natural_gradient(state, ds, every_row(ds), gram, c_opt)[1])

    grad = hyper_grad(state, ds, every_row(ds), gram, c)
    h = 1e-6
    for i in range(3):
        vp, vm = state.params.as_array(), state.params.as_array()
        vp[i] += h
        vm[i] -= h
        sp = at_params(state, KernelParams.from_array(vp))
        sm = at_params(state, KernelParams.from_array(vm))
        fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)
    assert not np.allclose(grad, hyper_grad(state, ds, every_row(ds), gram, c_opt), rtol=1e-3)


def test_natural_gradient_identity_with_euclidean_gradients():
    # g1 = dL/dmu - 2 (dL/dSigma) mu and G2 = dL/dSigma, the natural-gradient
    # identities in the mean/covariance parameterization.
    ds, state = _toy_problem(n=18, m=4, seed=4)
    state, c = _warmed_state(ds, state)
    g1, G2 = natural_gradient(state, ds, every_row(ds), bundle(state, ds.X), c)
    gmu = elbo_grad_mu(state, ds, c)
    gS = elbo_grad_sigma(state, ds, c)
    np.testing.assert_allclose(g1, gmu - 2.0 * gS @ state.mu, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(G2, gS, rtol=1e-8, atol=1e-10)


def test_euclidean_gradients_match_finite_differences():
    ds, state = _toy_problem(n=8, m=3, seed=5)
    state, c = _warmed_state(ds, state)
    gram = build_gram(ds.X, state.Z, state.params)
    h = 1e-6

    gmu = elbo_grad_mu(state, ds, c, gram)
    for i in range(state.m):
        e = np.eye(state.m)[i]
        sp, sm = replace(state, mu=state.mu + h * e), replace(state, mu=state.mu - h * e)
        fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
        assert gmu[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    gS = elbo_grad_sigma(state, ds, c, gram)
    rng = np.random.default_rng(6)
    D = rng.normal(size=(state.m, state.m))
    D = 0.5 * (D + D.T)
    sp = replace(state, Sigma=state.Sigma + h * D)
    sm = replace(state, Sigma=state.Sigma - h * D)
    fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
    assert float(np.sum(gS * D)) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_full_batch_unit_step_reaches_fixed_point():
    ds, state = _toy_problem(n=22, m=4, seed=7)
    batch = every_row(ds)
    gram = bundle(state, ds.X)
    c = local_update(state, gram)
    g1, G2 = natural_gradient(state, ds, batch, gram, c)
    state = global_step(state, g1, G2, rho=1.0)

    th = np.tanh(0.5 * c) / (2.0 * c)
    target1 = 0.5 * gram.kappa.T @ ds.y
    target2 = -0.5 * (gram.Kmm_inv + gram.kappa.T @ np.diag(th) @ gram.kappa)
    np.testing.assert_allclose(state.eta1, target1, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(state.eta2, target2, rtol=1e-10, atol=1e-12)

    # At fixed tilts the coordinate update is idempotent.
    g1b, G2b = natural_gradient(state, ds, batch, gram, c)
    np.testing.assert_allclose(g1b, np.zeros_like(g1b), atol=1e-11)
    np.testing.assert_allclose(G2b, np.zeros_like(G2b), atol=1e-11)


def test_global_step_validates_rate_and_zero_is_noop():
    ds, state = _toy_problem(n=10, m=3, seed=8)
    gram = bundle(state, ds.X)
    g1, G2 = natural_gradient(state, ds, every_row(ds), gram, local_update(state, gram))
    same = global_step(state, g1, G2, rho=0.0)
    np.testing.assert_array_equal(same.eta1, state.eta1)
    np.testing.assert_array_equal(same.eta2, state.eta2)
    for bad in [-0.1, 1.5]:
        with pytest.raises(ValueError, match="learning rate"):
            global_step(state, g1, G2, bad)


def test_partial_steps_preserve_spd_precision():
    ds, state = _toy_problem(n=16, m=4, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        idx = rng.choice(ds.n, size=4, replace=False)
        batch = MiniBatch(indices=idx, scale=ds.n / 4.0)
        gram = bundle(state, ds.X[idx])
        g1, G2 = natural_gradient(state, ds, batch, gram, local_update(state, gram))
        state = global_step(state, g1, G2, rho=0.3)
        cholesky(-2.0 * state.eta2, lower=True)  # raises if not SPD


def test_epoch_of_minibatch_gradients_averages_to_full_gradient():
    # One epoch partitions the data, and the n/s scaling makes the epoch
    # average of stochastic gradients equal the full-batch gradient exactly
    # (at fixed state and tilts).
    ds, state = _toy_problem(n=6, m=3, seed=11)
    state, c = _warmed_state(ds, state)
    g1_full, G2_full = natural_gradient(state, ds, every_row(ds), bundle(state, ds.X), c)

    perm = np.random.default_rng(12).permutation(6)
    parts = [perm[0:2], perm[2:4], perm[4:6]]
    g1_sum = np.zeros_like(g1_full)
    G2_sum = np.zeros_like(G2_full)
    for idx in parts:
        b = MiniBatch(indices=idx, scale=3.0)
        g1, G2 = natural_gradient(state, ds, b, bundle(state, ds.X[idx]), c[idx])
        g1_sum += g1
        G2_sum += G2
    np.testing.assert_allclose(g1_sum / 3.0, g1_full, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(G2_sum / 3.0, G2_full, rtol=1e-9, atol=1e-12)


class TestAdaptiveRate:
    def test_fixed_mode(self):
        # A set fixed_lr replaces the adaptive rate: fit steps by that constant.
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 2))
        ds = Dataset(X=X, y=np.where(X[:, 0] > 0, 1.0, -1.0))
        cfg = TrainConfig(num_inducing=5, batch_size=10, max_iters=12, conv_threshold=0.0,
                          fixed_lr=0.37, seed=0)
        res = fit(ds, cfg)
        rho = res.trace[:, list(res.trace_columns).index("rho")]
        assert rho.size == 12 and np.all(rho == 0.37)

    def test_constant_gradient_gives_unit_rate(self):
        rate = AdaptiveRate()
        g = np.array([1.0, -2.0, 0.5])
        for _ in range(20):
            rho = rate.observe(g)
        assert rho == 1.0

    def test_alternating_gradient_shrinks_rate(self):
        rate = AdaptiveRate()
        g = np.array([3.0, -1.0])
        rhos = [rate.observe(g if i % 2 == 0 else -g) for i in range(40)]
        assert rhos[-1] < 0.2
        assert all(1e-6 <= r <= 1.0 for r in rhos)

    def test_rate_stays_in_clamp_range(self):
        rate = AdaptiveRate()
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = rate.observe(rng.normal(size=6) * 10.0 ** rng.integers(-8, 8))
            assert 1e-6 <= rho <= 1.0


class TestAdam:
    def test_zero_gradient_is_noop(self):
        adam = AdamState(lr=0.05)
        step = adam.step(np.zeros(3))
        np.testing.assert_array_equal(step, np.zeros(3))

    def test_first_step_is_signed_learning_rate(self):
        adam = AdamState(lr=0.05)
        step = adam.step(np.array([4.0, -0.003, 0.0]))
        np.testing.assert_allclose(step[:2], [0.05, -0.05], rtol=1e-5)
        assert step[2] == 0.0

    def test_accumulates_momentum(self):
        adam = AdamState(lr=0.01)
        g = np.array([1.0, 1.0, 1.0])
        s1 = adam.step(g)
        s2 = adam.step(g)
        np.testing.assert_allclose(s2, s1, rtol=1e-6)
        assert adam.t == 2


def test_hyper_grad_matches_finite_differences():
    ds, state = _toy_problem(n=14, m=4, seed=14)
    state, c = _warmed_state(ds, state)
    grad = hyper_grad(state, ds, every_row(ds), bundle(state, ds.X), c)
    base = state.params.as_array()
    h = 1e-6
    for i in range(3):
        vp, vm = base.copy(), base.copy()
        vp[i] += h
        vm[i] -= h
        sp = at_params(state, KernelParams.from_array(vp))
        sm = at_params(state, KernelParams.from_array(vm))
        fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def _assert_kmm_bundle(gram, Z, params):
    """gram holds no rows and the K_mm factorization a fresh build at params gives."""
    fresh = build_gram(np.empty((0, Z.shape[1])), Z, params)
    assert gram.K_nm.shape == (0, Z.shape[0])
    np.testing.assert_array_equal(gram.K_mm, fresh.K_mm)
    np.testing.assert_array_equal(gram.chol_Kmm, fresh.chol_Kmm)


def _fail_factorizations(monkeypatch):
    def explode(K, base_jitter):
        raise FactorizationError("forced")

    monkeypatch.setattr(kernel, "chol_with_escalation", explode)


def test_hyper_step_moves_along_gradient_signs():
    ds, state = _toy_problem(n=14, m=4, seed=15)
    state, c = _warmed_state(ds, state)
    gram = bundle(state, ds.X)
    grad = hyper_grad(state, ds, every_row(ds), gram, c)
    adam = AdamState(lr=0.01)
    new_params, new_gram = hyper_step(state, ds, adam, every_row(ds), gram, c)
    delta = new_params.as_array() - state.params.as_array()
    for i in range(3):
        if abs(grad[i]) > 1e-8:
            assert np.sign(delta[i]) == np.sign(grad[i])
    _assert_kmm_bundle(new_gram, state.Z, new_params)


def test_hyper_step_reverts_on_factorization_failure(monkeypatch):
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    adam = AdamState(lr=0.02)
    gram = bundle(state, ds.X)
    _fail_factorizations(monkeypatch)
    old = state.params
    new_params, kept = hyper_step(state, ds, adam, every_row(ds), gram, c)
    assert new_params == old
    assert adam.lr == pytest.approx(0.01)
    assert kept.K_nm.shape == (0, state.m)
    assert kept is state.mm


def test_hyper_step_reverts_an_out_of_range_proposal():
    # A proposal outside KernelParams' range raised in from_array and ended
    # the fit (train --adam-lr 1e300 exited 1); it is a failed step instead.
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    adam = AdamState(lr=1e300)
    gram = bundle(state, ds.X)
    new_params, kept = hyper_step(state, ds, adam, every_row(ds), gram, c)
    assert new_params == state.params
    assert adam.lr == 5e299
    assert kept.K_nm.shape == (0, state.m)
    assert kept is state.mm


def test_batch_hyper_grads_average_to_the_full_gradient():
    # Over one epoch's equal-size partition the n/s-scaled data parts sum to
    # the full data part, and the unscaled KL part is common to every batch.
    ds, state = _toy_problem(n=30, m=5, seed=14)
    state, c = _warmed_state(ds, state)
    full = hyper_grad(state, ds, every_row(ds), bundle(state, ds.X), c)
    batches = minibatch_iter(ds.n, 6, np.random.SeedSequence(3))
    grads = []
    for _ in range(ds.n // 6):
        batch = next(batches)
        idx = batch.indices
        grads.append(hyper_grad(state, ds, batch, bundle(state, ds.X[idx]), c[idx]))
    grads = np.array(grads)
    assert not np.allclose(grads[0], full, rtol=1e-3)
    np.testing.assert_allclose(grads.mean(axis=0), full, rtol=1e-12)


def test_batch_hyper_step_reverts_on_factorization_failure(monkeypatch):
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    batch = MiniBatch(indices=np.array([1, 4, 7, 8]), scale=2.5)
    gram_b = build_gram(ds.X[batch.indices], state.Z, state.params)
    c = c[batch.indices]
    new_params, new_gram = hyper_step(state, ds, AdamState(lr=0.02), batch, gram_b, c)
    assert new_params != state.params
    _assert_kmm_bundle(new_gram, state.Z, new_params)

    _fail_factorizations(monkeypatch)
    adam = AdamState(lr=0.02)
    new_params, kept = hyper_step(state, ds, adam, batch, gram_b, c)
    assert new_params == state.params
    assert kept.K_nm.shape == (0, state.m)
    assert kept is state.mm
    assert adam.lr == pytest.approx(0.01)


def _count_factorizations(monkeypatch):
    calls = []
    chol = kernel.chol_with_escalation

    def counting(K, base_jitter):
        calls.append(1)
        return chol(K, base_jitter)

    monkeypatch.setattr(kernel, "chol_with_escalation", counting)
    return calls


class TestGibbsMackayBound:
    def test_two_routes_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = 5
            f = rng.normal(size=n) * 3.0
            c = np.abs(rng.normal(size=n)) * 3.0
            y = rng.choice([-1.0, 1.0], size=n)
            a, b = gibbs_mackay_bound(f, c, y)
            assert a == pytest.approx(b, abs=1e-10)

    def test_tight_at_matched_tilts(self):
        # At c_i = |f_i| the quadratic bound touches the log-likelihood.
        rng = np.random.default_rng(18)
        f = rng.normal(size=6) * 2.0
        y = rng.choice([-1.0, 1.0], size=6)
        a, b = gibbs_mackay_bound(f, np.abs(f), y)
        target = float(np.sum(np.log(sigmoid(y * f))))
        assert a == pytest.approx(target, rel=1e-12)
        assert b == pytest.approx(target, rel=1e-12)

    def test_small_tilt_series_branch(self):
        f = np.array([0.3, -0.8])
        y = np.array([1.0, -1.0])
        for c in [0.0, 1e-6, 9e-4, 1.1e-3]:
            a, b = gibbs_mackay_bound(f, np.full(2, c), y)
            assert a == pytest.approx(b, abs=1e-10)

    def test_zero_everything_gives_log_half(self):
        a, b = gibbs_mackay_bound(np.zeros(3), np.zeros(3), np.ones(3))
        assert a == pytest.approx(3.0 * np.log(0.5), rel=1e-13)
        assert b == pytest.approx(3.0 * np.log(0.5), rel=1e-13)

    def test_is_lower_bound_on_log_likelihood(self):
        rng = np.random.default_rng(19)
        f = rng.normal(size=8) * 2.0
        y = rng.choice([-1.0, 1.0], size=8)
        loglik = float(np.sum(np.log(sigmoid(y * f))))
        for _ in range(20):
            c = np.abs(rng.normal(size=8)) * 4.0
            a, _ = gibbs_mackay_bound(f, c, y)
            assert a <= loglik + 1e-12


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(conv_threshold=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(fixed_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(fixed_lr=1.5)

    @pytest.mark.parametrize("field, value", [
        ("hyper_every", -1),
        ("adam_lr", 0.0),
        ("adam_lr", -0.5),
        ("adam_lr", float("nan")),
        ("heldout_frac", -0.3),
        ("heldout_frac", 0.0),
        ("heldout_frac", 1.0),
        ("heldout_frac", float("nan")),
        ("max_iters", -4),
        ("conv_threshold", float("nan")),
        ("adam_lr", float("inf")),
        ("seed", -1),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        TrainConfig(hyper_every=0, max_iters=0, heldout_frac=0.5, adam_lr=1e-9)


class TestFit:
    def test_full_batch_coordinate_ascent_is_monotone(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(50, 2))
        y = np.where(X[:, 0] > 0.2, 1.0, -1.0)
        ds = Dataset(X=X, y=y)
        cfg = TrainConfig(
            num_inducing=6,
            batch_size=50,
            max_iters=100,
            fixed_lr=1.0,
            hyper_every=0,
            conv_threshold=0.0,
            seed=3,
        )
        res = fit(ds, cfg)
        assert isinstance(res, FitResult)
        vals = res.trace[:, list(res.trace_columns).index("elbo_estimate")]
        assert np.all(np.diff(vals) > -1e-9)
        assert res.final_elbo == pytest.approx(vals[-1], rel=1e-9)

    def test_converges_on_easy_problem(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 2))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        res = fit(
            Dataset(X=X, y=y),
            TrainConfig(num_inducing=8, batch_size=60, max_iters=400, hyper_every=0, seed=0),
        )
        assert res.converged
        assert res.n_iters < 400
        assert np.isfinite(res.final_elbo)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(40, 2))
        y = np.where(X.sum(axis=1) > 0, 1.0, -1.0)
        ds = Dataset(X=X, y=y)
        cfg = TrainConfig(num_inducing=5, batch_size=10, max_iters=30, seed=9)
        r1, r2 = fit(ds, cfg), fit(ds, cfg)
        np.testing.assert_array_equal(r1.state.eta1, r2.state.eta1)
        np.testing.assert_array_equal(r1.state.eta2, r2.state.eta2)
        np.testing.assert_array_equal(r1.state.Z, r2.state.Z)
        assert r1.state.params == r2.state.params
        # every trace column except wall time is bit-reproducible
        cols = [i for i, name in enumerate(r1.trace_columns) if name != "wall_seconds"]
        np.testing.assert_array_equal(r1.trace[:, cols], r2.trace[:, cols])

    def test_heldout_convergence_mode(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(80, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        res = fit(
            Dataset(X=X, y=y),
            TrainConfig(
                num_inducing=6,
                batch_size=24,
                max_iters=150,
                heldout_frac=0.2,
                hyper_every=0,
                seed=1,
            ),
        )
        assert res.heldout is not None
        assert res.heldout.n == 16
        assert np.isfinite(res.final_elbo)

    def test_trace_schema_and_optional_error_column(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        ds = Dataset(X=X, y=y)
        res = fit(ds, TrainConfig(num_inducing=4, batch_size=10, max_iters=12, seed=0))
        assert res.trace_columns == ("iter", "wall_seconds", "elbo_estimate", "rho")
        assert res.trace.shape[1] == 4
        np.testing.assert_array_equal(res.trace[:, 0], np.arange(1, res.trace.shape[0] + 1))
        assert np.all(np.diff(res.trace[:, 1]) >= 0.0)

        res2 = fit(
            ds,
            TrainConfig(
                num_inducing=4, batch_size=10, max_iters=12, seed=0, trace_train_error=True
            ),
        )
        assert res2.trace_columns[-1] == "train_error"
        errs = res2.trace[:, -1]
        assert np.all((0.0 <= errs) & (errs <= 1.0))

    def test_stochastic_run_keeps_precision_factorizable(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(120, 3))
        y = np.where(X[:, 0] - X[:, 2] > 0, 1.0, -1.0)
        res = fit(
            Dataset(X=X, y=y),
            TrainConfig(
                num_inducing=10,
                batch_size=20,
                max_iters=200,
                conv_threshold=0.0,
                hyper_every=10,
                seed=2,
            ),
        )
        cholesky(-2.0 * res.state.eta2, lower=True)
        assert np.all(np.isfinite(res.trace))

    def test_no_kmm_solve_inside_the_loop(self, monkeypatch):
        # kappa and the bound read the shared K_mm^{-1}; only the closing
        # latent_predict pass solves against K_mm, three times (alpha and
        # the two sides of B).
        ds, _ = _toy_problem(n=60, m=6)
        calls = []
        solve_mm = GramBundle.solve_mm

        def counting(self, B):
            calls.append(1)
            return solve_mm(self, B)

        monkeypatch.setattr(GramBundle, "solve_mm", counting)
        fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=40,
                            conv_threshold=0.0, hyper_every=0, seed=0))
        assert len(calls) == 3

    def test_one_cholesky_per_iteration(self, monkeypatch):
        # The precision's factor gives Sigma and log|Sigma| alike; besides
        # it, only set-up factorizes (K_mm), and the closing bound reads the
        # cached log|Sigma|.  At two factorizations an iteration this read
        # 2 T + 2.
        ds, _ = _toy_problem(n=60, m=6)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        for module in (model, inference, kernel):
            if hasattr(module, "cholesky"):
                monkeypatch.setattr(module, "cholesky", counting(module.cholesky))
        iters = 40
        fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=iters,
                            conv_threshold=0.0, hyper_every=0, seed=0))
        assert len(calls) == iters + 1

    def test_hyper_iterations_touch_only_batch_rows(self, monkeypatch):
        ds, _ = _toy_problem(n=60, m=6)
        gram_rows, grad_rows = [], []

        def recording(fn, rows):
            def wrapper(X, *args, **kwargs):
                rows.append(np.atleast_2d(X).shape[0])
                return fn(X, *args, **kwargs)
            return wrapper

        def recording_grad(gram, X, *args):
            grad_rows.append((gram.K_nm.shape[0], X.shape[0]))
            return kern_grad(gram, X, *args)

        monkeypatch.setattr(inference, "build_gram", recording(build_gram, gram_rows))
        monkeypatch.setattr(model, "build_gram", recording(build_gram, gram_rows))
        monkeypatch.setattr(inference, "kern_grad", recording_grad)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=20,
                                  conv_threshold=0.0, hyper_every=5, seed=0))
        assert res.n_iters == 20
        assert grad_rows == [(15, 15)] * 4  # the batch bundle and the batch rows
        # the K_mm bundle before the loop, the batches, and each step's K_mm bundle
        assert gram_rows == [0] + ([15] * 5 + [0]) * 4

    def test_hyper_iterations_compute_batch_marginals_once(self, monkeypatch):
        # The tilts a hyperparameter step reads are the marginals the bound
        # estimate has just computed at the same state, so every iteration
        # computes batch marginals twice (tilt update, estimate), step or not.
        ds, _ = _toy_problem(n=60, m=6)
        calls = []
        marginals = GramBundle.marginals

        def counting(self, mu, Sigma):
            calls.append(self.K_nm.shape[0])
            return marginals(self, mu, Sigma)

        monkeypatch.setattr(GramBundle, "marginals", counting)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=20,
                                  conv_threshold=0.0, hyper_every=1, seed=0))
        assert res.n_iters == 20
        assert calls == [15] * 40

    @pytest.mark.parametrize("hyper_every", [0, 5])
    def test_closing_tilts_and_bound_match_kappa_form(self, hyper_every):
        ds, _ = _toy_problem(n=60, m=6)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=20,
                                  conv_threshold=0.0, hyper_every=hyper_every, seed=0))
        c = tilts(res.state, ds.X)
        assert res.final_elbo == pytest.approx(elbo_kappa_form(res.state, ds, c), rel=1e-12)

    @pytest.mark.parametrize("adam_lr", [0.02, 1e300])
    def test_state_holds_the_factorization_at_its_params(self, adam_lr):
        # Accepted steps replace params and mm together; at adam_lr=1e300
        # every proposal is out of range, so every step is reverted.
        ds, _ = _toy_problem(n=60, m=6)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=10,
                                  conv_threshold=0.0, hyper_every=1, adam_lr=adam_lr, seed=0))
        initial = KernelParams.default(ds.d)
        assert (res.state.params == initial) == (adam_lr == 1e300)
        _assert_kmm_bundle(res.state.mm, res.state.Z, res.state.params)

    def test_factorizes_kmm_once_without_hyper_steps(self, monkeypatch):
        ds, _ = _toy_problem(n=60, m=6)
        calls = _count_factorizations(monkeypatch)
        fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=20,
                            conv_threshold=0.0, hyper_every=0, seed=0))
        assert len(calls) == 1

    def test_heldout_evaluations_reuse_the_factorization(self, monkeypatch):
        ds, _ = _toy_problem(n=80, m=6)
        calls = _count_factorizations(monkeypatch)
        counts = []
        for iters in (2, 12):
            calls.clear()
            res = fit(ds, TrainConfig(num_inducing=6, batch_size=16, max_iters=iters,
                                      heldout_frac=0.1, hyper_every=0,
                                      trace_train_error=True, seed=0))
            counts.append((res.n_iters, len(calls)))
        assert counts[1][0] > counts[0][0]
        assert counts[0][1] == counts[1][1] == 1

    def test_rejects_too_many_inducing_points(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(10, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        with pytest.raises(ValueError, match="num_inducing"):
            fit(Dataset(X=X, y=y), TrainConfig(num_inducing=11, batch_size=5, max_iters=3))

    @pytest.mark.parametrize("Z", [np.zeros(3), np.zeros((4, 3, 1))], ids=["1-D", "3-D"])
    def test_rejects_inducing_Z_that_is_not_2d(self, Z):
        ds, _ = _toy_problem(n=30, d=3)
        with pytest.raises(ValueError, match=r"inducing_Z .*\(k, 3\)"):
            fit(ds, TrainConfig(inducing_Z=Z, batch_size=10, max_iters=3))

    def test_rejects_inducing_Z_with_another_column_count(self):
        ds, _ = _toy_problem(n=30, d=3)
        with pytest.raises(ValueError, match=r"inducing_Z .*\(k, 3\)"):
            fit(ds, TrainConfig(inducing_Z=np.zeros((4, 2)), batch_size=10, max_iters=3))

    def test_rejects_non_finite_inducing_Z(self):
        ds, _ = _toy_problem(n=30, d=3)
        Z = np.zeros((4, 3))
        Z[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"inducing_Z .*\(k, 3\)"):
            fit(ds, TrainConfig(inducing_Z=Z, batch_size=10, max_iters=3))

    def test_rejects_inducing_Z_without_rows_and_prints_nothing(self, capfd):
        ds, _ = _toy_problem(n=30, d=3)
        with pytest.raises(ValueError, match=r"inducing_Z .*\(k, 3\)"):
            fit(ds, TrainConfig(inducing_Z=np.zeros((0, 3)), batch_size=10, max_iters=3))
        assert capfd.readouterr().err == ""

    @staticmethod
    def _traced_peak_at_paper_scale():
        """tracemalloc peak of one fit at n=2e5, d=8, m=100, and X.nbytes."""
        rng = np.random.default_rng(27)
        X = rng.normal(size=(200_000, 8))
        ds = Dataset(X=X, y=np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1.0, -1.0))
        cfg = TrainConfig(num_inducing=100, batch_size=100, max_iters=20,
                          conv_threshold=0.0, hyper_every=0, seed=0)
        tracemalloc.start()
        try:
            fit(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, X.nbytes

    def test_peak_allocation_at_paper_scale_stays_below_twice_the_data(self):
        # Set-up reads a bounded row sample and every other pass over the
        # rows is a mini-batch or a blocked prediction, so what fit
        # allocates beyond X is length-n vectors, never an n x m buffer.
        peak, data = self._traced_peak_at_paper_scale()
        assert peak < 2 * data

    def test_peak_allocation_at_paper_scale_stays_below_the_data(self):
        # The closing bound sums its data terms per row block, so the peak
        # is the closing pass's few length-n vectors, under the 8 columns of X.
        peak, data = self._traced_peak_at_paper_scale()
        assert peak < data

    def test_peak_allocation_at_paper_scale_holds_no_tilt_vector(self):
        # The state holds no tilts, so the closing pass holds its marginals
        # and their tilts and no third length-n vector (0.82x X when the
        # state kept a tilt per row).
        peak, data = self._traced_peak_at_paper_scale()
        assert peak < 0.75 * data


@pytest.fixture(scope="module")
def logistic_data():
    """n=3000, d=5: labels drawn through a logistic of a smooth function, and 500 test rows."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3000, 5))
    f = np.sin(X[:, 0]) + X[:, 1] - 0.5 * X[:, 2] * X[:, 3]
    y = np.where(rng.random(3000) < sigmoid(2.0 * f), 1.0, -1.0)
    return Dataset(X=X, y=y), rng.normal(size=(500, 5))


_SYMMETRY_CONFIGS = [
    {"hyper_every": 5, "max_iters": 200},  # the default 1000: 53 s on 2 vCPUs, 2 BLAS threads
    {"heldout_frac": 0.2},
    {"fixed_lr": 0.5, "hyper_every": 0, "num_inducing": 40, "batch_size": 250},
]


@pytest.mark.parametrize("kwargs", _SYMMETRY_CONFIGS)
def test_label_flip_negates_eta1_and_leaves_the_rest_bit_identical(kwargs, logistic_data):
    # sigma(y f) and its Polya-Gamma augmentation are unchanged under
    # (y, f) -> (-y, -f), and nothing in fit draws at random from the labels.
    ds, X_test = logistic_data
    a = fit(ds, TrainConfig(**kwargs))
    b = fit(Dataset(X=ds.X, y=-ds.y), TrainConfig(**kwargs))
    assert np.array_equal(b.state.eta1, -a.state.eta1)
    assert np.array_equal(b.state.eta2, a.state.eta2)
    assert b.state.params == a.state.params
    cols = [a.trace_columns.index(name) for name in ("iter", "elbo_estimate", "rho")]
    assert np.array_equal(b.trace[:, cols], a.trace[:, cols])
    assert (b.final_elbo, b.n_iters) == (a.final_elbo, a.n_iters)
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, X_test))
    np.testing.assert_allclose(p_b, 1.0 - p_a, rtol=0.0, atol=1e-15)


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(a))


@pytest.mark.parametrize("kwargs", [{}, *_SYMMETRY_CONFIGS])
def test_translating_x_moves_the_fit_only_by_round_off(kwargs, logistic_data):
    # The squared-exponential kernel is stationary, so fit(X + t) is fit(X)
    # with Z shifted by t.  Gram entries come from |x|^2 + |z|^2 - 2 x.z,
    # whose round-off grows with |x|^2; measured on this data, the largest
    # gaps are 6.7e-11 (eta1, TrainConfig()) and 1.5e-11 (class_prob).
    ds, X_test = logistic_data
    a = fit(ds, TrainConfig(**kwargs))
    b = fit(Dataset(X=ds.X + 3.0, y=ds.y), TrainConfig(**kwargs))
    assert b.n_iters == a.n_iters
    assert _relative_gap(a.state.eta1, b.state.eta1) < 1e-9
    assert _relative_gap(a.state.eta2, b.state.eta2) < 1e-9
    np.testing.assert_allclose(b.state.params.as_array(), a.state.params.as_array(),
                               rtol=0.0, atol=1e-9)
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, X_test + 3.0))
    np.testing.assert_allclose(p_b, p_a, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("kwargs", [
    {"fixed_lr": 0.5, "hyper_every": 0, "batch_size": 250},
    {"hyper_every": 5, "max_iters": 200},
])
def test_inputs_far_from_the_origin_keep_their_digits(kwargs, logistic_data):
    # Translating X and Z by 1e5 leaves only the round-off of X + 1e5 itself
    # when the kernel takes |x - z|^2 about Z's whole-number centre: gaps of
    # 9.7e-12 and 2.8e-11 here.  Expanded about the origin, the class
    # probabilities moved by 5.0e-5 and 5.2e-3.
    ds, X_test = logistic_data
    Z = ds.X[:40]
    a = fit(ds, TrainConfig(**kwargs, inducing_Z=Z))
    b = fit(Dataset(X=ds.X + 1e5, y=ds.y), TrainConfig(**kwargs, inducing_Z=Z + 1e5))
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, X_test + 1e5))
    np.testing.assert_allclose(p_b, p_a, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("kwargs, tol", [
    ({"fixed_lr": 1.0, "hyper_every": 0}, (1e-12, 1e-13)),
    ({"fixed_lr": 0.5, "hyper_every": 5}, (1e-9, 1e-9)),
    ({"hyper_every": 5}, (1e-9, 1e-9)),
])
def test_permuting_the_rows_of_a_full_batch_fit_moves_it_only_by_round_off(
        kwargs, tol, logistic_data):
    # With every row in the batch and Z given, nothing depends on the row
    # order but the order of the sums.  Measured on these 600 rows: the unit
    # step converges in 11 iterations with gaps of 8.6e-16 (eta) and 7.8e-15
    # (class_prob).  The two runs with Adam steps go all 1000 iterations, and
    # Adam's step, normalised by the gradient's own size, carries the
    # round-off of a gradient near zero into the parameters: 6.6e-11 (eta)
    # and 2.2e-11 (class_prob).
    ds, X_test = logistic_data
    ds = ds.subset(np.arange(600))
    perm = np.random.default_rng(7).permutation(ds.n)
    config = TrainConfig(**kwargs, batch_size=ds.n, inducing_Z=ds.X[:40])
    a, b = fit(ds, config), fit(ds.subset(perm), config)
    assert b.n_iters == a.n_iters
    assert _relative_gap(a.state.eta1, b.state.eta1) < tol[0]
    assert _relative_gap(a.state.eta2, b.state.eta2) < tol[0]
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, X_test))
    np.testing.assert_allclose(p_b, p_a, rtol=0.0, atol=tol[1])


@pytest.mark.parametrize("kwargs", _SYMMETRY_CONFIGS)
def test_scaling_x_and_the_lengthscale_together_moves_the_fit_only_by_round_off(
        kwargs, logistic_data):
    # The kernel reads x / l, so with fixed hyperparameters fit(aX) at
    # lengthscale a l is fit(X) at l.  l round-trips through exp(log(a l)),
    # so this holds at round-off, not bit for bit: measured on this data at
    # a = 3, the largest gap is 1.2e-12 (eta1).  With hyper_every = 0 the
    # first configuration is TrainConfig() cut at 200 iterations.
    ds, X_test = logistic_data
    kwargs = {**kwargs, "hyper_every": 0}
    l = np.sqrt(ds.d)
    a = fit(ds, TrainConfig(**kwargs, init_params=KernelParams.default(ds.d, l)))
    b = fit(Dataset(X=3.0 * ds.X, y=ds.y),
            TrainConfig(**kwargs, init_params=KernelParams.default(ds.d, 3.0 * l)))
    assert b.n_iters == a.n_iters
    assert _relative_gap(a.state.eta1, b.state.eta1) < 2e-11
    assert _relative_gap(a.state.eta2, b.state.eta2) < 2e-11
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, 3.0 * X_test))
    np.testing.assert_allclose(p_b, p_a, rtol=0.0, atol=2e-11)
