"""Tests for the bound, local/global updates, learning rates, and training."""

import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, lapack
from scipy.special import expit as sigmoid

import pggpc.inference as inference
import pggpc.kernel as kernel
import pggpc.model as model
from pggpc.data import minibatch_iter
from pggpc.inference import (
    TRACE_COLUMNS,
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
from pggpc.kernel import (FactorizationError, GramBundle, GramRows, KernelParams, build_gram,
                          factorize, kern_grad)
from pggpc.model import Dataset, init_state
from pggpc.prediction import _ROW_BLOCK, class_prob, latent_predict

from oracles import (
    at_moments,
    at_params,
    elbo_grad_mu,
    elbo_grad_sigma,
    elbo_kappa_form,
    full_elbo,
    gauss_part,
    gibbs_mackay_bound,
    gram_rows,
    hyper_weights_dense,
    kern_matrix,
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
        gram = gram_rows(state, ds.X)
        c = local_update(*gram.marginals(state.mu, state.Sigma))
        state = global_step(state, *natural_gradient(state, gram, ds.y, c, 1.0), rho)
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
    gram = gram_rows(state, ds.X)
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
    full = tilts(state, ds.X)
    idx = np.array([3, 7, 15])
    sub = tilts(state, ds.X[idx])
    np.testing.assert_allclose(sub, full[idx], rtol=1e-12)


def test_natural_gradient_matches_dense_formulas():
    ds, state = _toy_problem(n=25, m=4, seed=3)
    state, c = _warmed_state(ds, state)
    gram = gram_rows(state, ds.X)
    g1, G2 = natural_gradient(state, gram, ds.y, c, 1.0)

    K_mm = state.mm.K_mm
    kappa = build_gram(ds.X, state.mm).kappa
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
    gram = gram_rows(state, ds.X)
    g1, G2 = natural_gradient(state, gram, ds.y, c, 1.0)
    th = np.tanh(0.5 * c) / (2.0 * c)
    G2_ref = -0.5 * (np.linalg.inv(state.mm.K_mm) + gram.kappa.T @ np.diag(th) @ gram.kappa)
    np.testing.assert_allclose(g1, 0.5 * gram.kappa.T @ ds.y - state.eta1, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(G2, G2_ref - state.eta2, rtol=1e-7, atol=1e-9)
    assert not np.allclose(G2, natural_gradient(state, gram, ds.y, c_opt, 1.0)[1])

    grad = hyper_grad(state, gram, ds.y, c, 1.0)
    h = 1e-6
    for i in range(3):
        vp, vm = state.params.as_array(), state.params.as_array()
        vp[i] += h
        vm[i] -= h
        sp = at_params(state, KernelParams.from_array(vp))
        sm = at_params(state, KernelParams.from_array(vm))
        fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)
    assert not np.allclose(grad, hyper_grad(state, gram, ds.y, c_opt, 1.0), rtol=1e-3)


def test_natural_gradient_identity_with_euclidean_gradients():
    # g1 = dL/dmu - 2 (dL/dSigma) mu and G2 = dL/dSigma, the natural-gradient
    # identities in the mean/covariance parameterization.
    ds, state = _toy_problem(n=18, m=4, seed=4)
    state, c = _warmed_state(ds, state)
    g1, G2 = natural_gradient(state, gram_rows(state, ds.X), ds.y, c, 1.0)
    gmu = elbo_grad_mu(state, ds, c)
    gS = elbo_grad_sigma(state, ds, c)
    np.testing.assert_allclose(g1, gmu - 2.0 * gS @ state.mu, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(G2, gS, rtol=1e-8, atol=1e-10)


def test_euclidean_gradients_match_finite_differences():
    ds, state = _toy_problem(n=8, m=3, seed=5)
    state, c = _warmed_state(ds, state)
    gram = build_gram(ds.X, state.mm)
    h = 1e-6

    gmu = elbo_grad_mu(state, ds, c, gram)
    for i in range(state.m):
        e = np.eye(state.m)[i]
        sp, sm = at_moments(state, mu=state.mu + h * e), at_moments(state, mu=state.mu - h * e)
        fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
        assert gmu[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    gS = elbo_grad_sigma(state, ds, c, gram)
    rng = np.random.default_rng(6)
    D = rng.normal(size=(state.m, state.m))
    D = 0.5 * (D + D.T)
    sp = at_moments(state, Sigma=state.Sigma + h * D)
    sm = at_moments(state, Sigma=state.Sigma - h * D)
    fd = (full_elbo(sp, ds, c) - full_elbo(sm, ds, c)) / (2.0 * h)
    assert float(np.sum(gS * D)) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_full_batch_unit_step_reaches_fixed_point():
    ds, state = _toy_problem(n=22, m=4, seed=7)
    gram = gram_rows(state, ds.X)
    c = local_update(*gram.marginals(state.mu, state.Sigma))
    g1, G2 = natural_gradient(state, gram, ds.y, c, 1.0)
    state = global_step(state, g1, G2, rho=1.0)

    th = np.tanh(0.5 * c) / (2.0 * c)
    target1 = 0.5 * gram.kappa.T @ ds.y
    target2 = -0.5 * (state.mm.Kmm_inv + gram.kappa.T @ np.diag(th) @ gram.kappa)
    np.testing.assert_allclose(state.eta1, target1, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(state.eta2, target2, rtol=1e-10, atol=1e-12)

    # At fixed tilts the coordinate update is idempotent.
    g1b, G2b = natural_gradient(state, gram, ds.y, c, 1.0)
    np.testing.assert_allclose(g1b, np.zeros_like(g1b), atol=1e-11)
    np.testing.assert_allclose(G2b, np.zeros_like(G2b), atol=1e-11)


def test_global_step_validates_rate_and_zero_is_noop():
    ds, state = _toy_problem(n=10, m=3, seed=8)
    gram = gram_rows(state, ds.X)
    c = local_update(*gram.marginals(state.mu, state.Sigma))
    g1, G2 = natural_gradient(state, gram, ds.y, c, 1.0)
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
        gram = gram_rows(state, ds.X[idx])
        c = local_update(*gram.marginals(state.mu, state.Sigma))
        state = global_step(state, *natural_gradient(state, gram, ds.y[idx], c, ds.n / 4.0),
                            rho=0.3)
        cholesky(-2.0 * state.eta2, lower=True)  # raises if not SPD


def test_epoch_of_minibatch_gradients_averages_to_full_gradient():
    # One epoch partitions the data, and the n/s scaling makes the epoch
    # average of stochastic gradients equal the full-batch gradient exactly
    # (at fixed state and tilts).
    ds, state = _toy_problem(n=6, m=3, seed=11)
    state, c = _warmed_state(ds, state)
    g1_full, G2_full = natural_gradient(state, gram_rows(state, ds.X), ds.y, c, 1.0)

    perm = np.random.default_rng(12).permutation(6)
    parts = [perm[0:2], perm[2:4], perm[4:6]]
    g1_sum = np.zeros_like(g1_full)
    G2_sum = np.zeros_like(G2_full)
    for idx in parts:
        g1, G2 = natural_gradient(state, gram_rows(state, ds.X[idx]), ds.y[idx], c[idx], 3.0)
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
        rho = res.trace[:, TRACE_COLUMNS.index("rho")]
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

    def test_parts_give_the_rate_of_the_joined_vector(self):
        # fit passes (g1, G2) without joining them; the rate and the squared
        # norm it leaves are those of the concatenated vector.
        rng = np.random.default_rng(29)
        parts, joined = AdaptiveRate(), AdaptiveRate()
        g1, G2 = rng.normal(size=4), rng.normal(size=(4, 4))
        rhos = []
        for _ in range(60):
            n1, N2 = g1 + rng.normal(size=4), G2 + rng.normal(size=(4, 4))
            rhos.append(parts.observe(n1, N2))
            vec = np.concatenate([n1, N2.ravel()])
            assert rhos[-1] == pytest.approx(joined.observe(vec), rel=1e-12, abs=0.0)
            assert parts.sq_norm == pytest.approx(float(vec @ vec), rel=1e-12, abs=0.0)
        assert min(rhos) < 0.5 < max(rhos)

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
    grad = hyper_grad(state, gram_rows(state, ds.X), ds.y, c, 1.0)
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


def test_hyper_grad_contracts_the_six_term_weights_at_escalated_jitter():
    # hyper_grad forms P_K and P_A in factored form, with two m^3 products
    # where the six terms take four.  Two 8-point clusters 1e7 lengthscales
    # either side of the origin give distances with round-off of order 0.01,
    # so K_mm is indefinite by far more than its jitter and factorizes only
    # at jitter_extra = 1e5 times it, yet well conditioned (cond 86).  Near-
    # duplicate inducing inputs escalate only at cond ~1e15, where the two
    # orderings of the same products differ by O(1).
    rng = np.random.default_rng(19)
    C = 1e7
    Z = np.concatenate([C + 0.1 * np.arange(8), -C - 0.1 * np.arange(8)])[:, None]
    X = np.concatenate([C + rng.uniform(0.0, 0.8, 20), -C - rng.uniform(0.0, 0.8, 20)])[:, None]
    ds = Dataset(X=X, y=np.where(rng.random(40) < 0.5, 1.0, -1.0))
    state, _ = _warmed_state(ds, init_state(Z, KernelParams(0.0)))
    assert state.mm.jitter_extra > 0.0
    idx = np.arange(0, 40, 4)
    gram = build_gram(ds.X[idx], state.mm)
    c = local_update(*gram.marginals(state.mu, state.Sigma))
    want = kern_grad(state.mm, gram, *hyper_weights_dense(state, ds.y[idx], 4.0, gram, c))
    np.testing.assert_allclose(hyper_grad(state, gram, ds.y[idx], c, 4.0), want, rtol=1e-10)


def _assert_factorization(mm, Z, params):
    """mm carries (Z, params) and the K_mm factorization a fresh one at them gives."""
    fresh = factorize(Z, params)
    assert mm.Z is Z and mm.params == params
    np.testing.assert_array_equal(mm.K_mm, fresh.K_mm)
    np.testing.assert_array_equal(mm.chol_Kmm, fresh.chol_Kmm)


def _fail_factorizations(monkeypatch):
    def explode(K, base_jitter):
        raise FactorizationError("forced")

    monkeypatch.setattr(kernel, "chol_with_escalation", explode)


def test_hyper_step_moves_along_gradient_signs():
    ds, state = _toy_problem(n=14, m=4, seed=15)
    state, c = _warmed_state(ds, state)
    gram = gram_rows(state, ds.X)
    grad = hyper_grad(state, gram, ds.y, c, 1.0)
    adam = AdamState(lr=0.01)
    new_params, new_state = hyper_step(state, adam, gram, ds.y, c, 1.0)
    delta = new_params.as_array() - state.params.as_array()
    for i in range(3):
        if abs(grad[i]) > 1e-8:
            assert np.sign(delta[i]) == np.sign(grad[i])
    _assert_factorization(new_state.mm, state.Z, new_params)


def test_hyper_step_reverts_on_factorization_failure(monkeypatch):
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    adam = AdamState(lr=0.02)
    gram = gram_rows(state, ds.X)
    _fail_factorizations(monkeypatch)
    old = state.params
    new_params, kept = hyper_step(state, adam, gram, ds.y, c, 1.0)
    assert new_params == old
    assert adam.lr == pytest.approx(0.01)
    assert kept is state


def test_hyper_step_reverts_an_out_of_range_proposal():
    # A proposal outside KernelParams' range raised in from_array and ended
    # the fit (train --adam-lr 1e300 exited 1); it is a failed step instead.
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    adam = AdamState(lr=1e300)
    gram = gram_rows(state, ds.X)
    new_params, kept = hyper_step(state, adam, gram, ds.y, c, 1.0)
    assert new_params == state.params
    assert adam.lr == 5e299
    assert kept is state


def test_batch_hyper_grads_average_to_the_full_gradient():
    # Over one epoch's equal-size partition the n/s-scaled data parts sum to
    # the full data part, and the unscaled KL part is common to every batch.
    ds, state = _toy_problem(n=30, m=5, seed=14)
    state, c = _warmed_state(ds, state)
    full = hyper_grad(state, gram_rows(state, ds.X), ds.y, c, 1.0)
    batches = minibatch_iter(ds.n, 6, np.random.SeedSequence(3))
    grads = []
    for _ in range(ds.n // 6):
        idx = next(batches)
        grads.append(hyper_grad(state, gram_rows(state, ds.X[idx]), ds.y[idx], c[idx], 5.0))
    grads = np.array(grads)
    assert not np.allclose(grads[0], full, rtol=1e-3)
    np.testing.assert_allclose(grads.mean(axis=0), full, rtol=1e-12)


def test_accepted_hyper_steps_carry_the_inducing_side_of_their_parameters():
    # Each accepted Adam step puts a new mm into the state; the state reads
    # Z and the parameters from it, and its inducing side is taken at the
    # new lengthscale, so Gram rows built against it give the K_nm of the
    # new parameters.
    ds, _ = _toy_problem(n=40, m=5, seed=17)
    res = fit(ds, TrainConfig(num_inducing=5, batch_size=10, max_iters=6, conv_threshold=0.0,
                              hyper_every=1, adam_lr=0.05, seed=2))
    state = res.state
    assert state.params.log_lengthscale != KernelParams.default(ds.d).log_lengthscale
    assert state.params is state.mm.params and state.Z is state.mm.Z
    assert state.mm.inducing.l == state.params.lengthscale
    gram = build_gram(ds.X, state.mm)
    np.testing.assert_array_equal(gram.K_nm, kern_matrix(ds.X, state.Z, state.params))


def test_state_takes_no_kernel_apart_from_its_factorization():
    _, state = _toy_problem(n=10, m=3, seed=16)
    with pytest.raises(TypeError):
        replace(state, params=KernelParams(1.0))
    with pytest.raises(TypeError):
        replace(state, Z=state.Z + 1.0)


def test_hyper_step_returns_the_params_of_the_factorization_it_returns():
    # The pair is (mm.params, the state holding the new mm) on an accepted
    # step and (state.params, state) on a reverted one, so comparing its
    # first entry with state.params tells the two apart.  q(u) is kept.
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    gram = gram_rows(state, ds.X)
    params, new = hyper_step(state, AdamState(lr=0.02), gram, ds.y, c, 1.0)
    assert params is new.mm.params and new.mm is not state.mm and params != state.params
    assert new.eta1 is state.eta1 and new.eta2 is state.eta2 and new.Sigma is state.Sigma
    params, new = hyper_step(state, AdamState(lr=1e300), gram, ds.y, c, 1.0)
    assert params is state.params and new is state


def test_gradient_and_prediction_read_the_factorizations_inducing_side(monkeypatch):
    # The gradient and prediction take their distances to Z from state.mm's
    # inducing side: neither prepares Z again (per row block, for prediction),
    # and the gradient reads the batch rows build_gram took to kernel units.
    ds, state = _toy_problem(n=40, m=5, seed=18)
    state, c = _warmed_state(ds, state)
    idx = np.arange(0, 40, 4)
    gram = build_gram(ds.X[idx], state.mm)
    built, taken = [], []
    init, rows = kernel._Inducing.__init__, kernel._Inducing.rows

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    def taking(self, X):
        taken.append(X.shape[0])
        return rows(self, X)

    monkeypatch.setattr(kernel._Inducing, "__init__", counting)
    monkeypatch.setattr(kernel._Inducing, "rows", taking)
    hyper_grad(state, gram, ds.y[idx], c[idx], 4.0)
    assert built == [] and taken == []
    mu_star, _ = latent_predict(state, np.zeros((3 * _ROW_BLOCK + 1, ds.d)))
    assert mu_star.shape == (3 * _ROW_BLOCK + 1,)
    assert built == []


def test_batch_hyper_step_reverts_on_factorization_failure(monkeypatch):
    ds, state = _toy_problem(n=10, m=3, seed=16)
    state, c = _warmed_state(ds, state)
    idx = np.array([1, 4, 7, 8])
    gram_b = build_gram(ds.X[idx], state.mm)
    y, c = ds.y[idx], c[idx]
    new_params, new_state = hyper_step(state, AdamState(lr=0.02), gram_b, y, c, 2.5)
    assert new_params != state.params
    _assert_factorization(new_state.mm, state.Z, new_params)

    _fail_factorizations(monkeypatch)
    adam = AdamState(lr=0.02)
    new_params, kept = hyper_step(state, adam, gram_b, y, c, 2.5)
    assert new_params == state.params
    assert kept is state
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
        ("batch_size", 0),
        ("batch_size", -3),
        ("num_inducing", 0),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 10.0, True])
    @pytest.mark.parametrize("field", ["num_inducing", "batch_size", "max_iters",
                                       "hyper_every", "seed"])
    def test_count_field_that_is_not_an_integer_is_named(self, field, value):
        # hyper_every=2.5 took an Adam step on iterations 5, 10, ...; the
        # others ended in a TypeError from NumPy that named no field.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        config = TrainConfig(**{name: np.int64(3) for name in
                                ("num_inducing", "batch_size", "max_iters", "hyper_every",
                                 "seed")})
        assert config.hyper_every == 3

    def test_fields_cannot_be_assigned(self):
        # Only construction validates a config, so none can be changed after
        # it; replace builds a new one and validates that.
        config = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            config.batch_size = 0
        with pytest.raises(ValueError, match="^batch_size must"):
            replace(config, batch_size=0)

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
        vals = res.trace[:, TRACE_COLUMNS.index("elbo_estimate")]
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
        cols = [i for i, name in enumerate(TRACE_COLUMNS) if name != "wall_seconds"]
        np.testing.assert_array_equal(r1.trace[:, cols], r2.trace[:, cols])

    def test_result_is_frozen(self):
        ds, _ = _toy_problem(n=20, m=3)
        res = fit(ds, TrainConfig(num_inducing=3, batch_size=10, max_iters=2, seed=0))
        with pytest.raises(FrozenInstanceError):
            res.n_iters = 0
        assert not hasattr(res, "trace_columns")

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

    def test_trace_schema(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        ds = Dataset(X=X, y=y)
        res = fit(ds, TrainConfig(num_inducing=4, batch_size=10, max_iters=12, seed=0))
        assert TRACE_COLUMNS == ("iter", "wall_seconds", "elbo_estimate", "rho")
        assert res.trace.shape[1] == 4
        np.testing.assert_array_equal(res.trace[:, 0], np.arange(1, res.trace.shape[0] + 1))
        assert np.all(np.diff(res.trace[:, 1]) >= 0.0)

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

    @staticmethod
    def _factorizations(monkeypatch, iters, hyper_every):
        """Cholesky factorizations in one fit of the toy problem."""
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
        monkeypatch.setattr(lapack, "dpotrf", counting(lapack.dpotrf))  # natural_to_moments
        fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=iters,
                            conv_threshold=0.0, hyper_every=hyper_every, seed=0))
        return len(calls)

    def test_one_cholesky_per_iteration(self, monkeypatch):
        # The precision's factor gives Sigma and log|Sigma| alike; besides
        # it, only set-up factorizes (K_mm), and the closing bound reads the
        # state's log|Sigma|.  At two factorizations an iteration this read
        # 2 T + 2.
        assert self._factorizations(monkeypatch, 40, 0) == 40 + 1

    def test_one_more_cholesky_per_adam_step(self, monkeypatch):
        # An Adam step factorizes K_mm at its proposal and nothing else: its
        # replace keeps the state's log|Sigma|.  When that was a cached value
        # the replace dropped it, and the next bound paid a Cholesky of Sigma
        # (57 here).
        assert self._factorizations(monkeypatch, 40, 5) == 40 + 1 + 8

    def test_hyper_iterations_touch_only_batch_rows(self, monkeypatch):
        ds, _ = _toy_problem(n=60, m=6)
        built_rows, grad_rows = [], []

        def recording_gram(X, mm):
            built_rows.append(X.shape[0])
            return build_gram(X, mm)

        def recording_grad(mm, gram, *args):
            grad_rows.append((gram.K_nm.shape[0], gram.X.shape[0]))
            return kern_grad(mm, gram, *args)

        monkeypatch.setattr(inference, "build_gram", recording_gram)
        monkeypatch.setattr(inference, "kern_grad", recording_grad)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=20,
                                  conv_threshold=0.0, hyper_every=5, seed=0))
        assert res.n_iters == 20
        assert grad_rows == [(15, 15)] * 4  # the batch's Gram rows and the batch rows
        assert built_rows == [15] * 20  # K_mm alone is factorize's, which reads no rows

    @pytest.mark.parametrize("hyper_every, expected", [(0, 40), (1, 80), (10, 44)])
    def test_batch_marginals_once_per_iteration_and_per_hyper_step(self, monkeypatch,
                                                                   hyper_every, expected):
        # One set entering each iteration gives its tilts and its bound
        # estimate; a hyperparameter step takes its tilts from one more set,
        # at the new q(u).
        ds, _ = _toy_problem(n=60, m=6)
        calls = []
        marginals = GramRows.marginals

        def counting(self, mu, Sigma):
            calls.append(self.K_nm.shape[0])
            return marginals(self, mu, Sigma)

        monkeypatch.setattr(GramRows, "marginals", counting)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=40,
                                  conv_threshold=0.0, hyper_every=hyper_every, seed=0))
        assert res.n_iters == 40
        assert calls == [15] * expected

    @pytest.mark.parametrize("hyper_every", [0, 3])
    def test_eta2_stays_exactly_symmetric(self, hyper_every):
        # natural_to_moments factorizes one triangle of -2 eta2, so every
        # step must keep the other triangle equal to it.
        ds, _ = _toy_problem(n=60, m=6)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=40,
                                  conv_threshold=0.0, hyper_every=hyper_every, seed=0))
        assert np.array_equal(res.state.eta2, res.state.eta2.T)
        assert np.array_equal(res.state.Sigma, res.state.Sigma.T)

    def test_first_estimate_is_the_bound_entering_the_first_iteration(self, monkeypatch):
        # Row t of the trace is the batch bound at the state entering
        # iteration t, with that batch's optimal tilts: row 1 is at the prior.
        ds, _ = _toy_problem(n=60, m=6)
        Z, params = ds.X[:6] + 0.1, KernelParams.default(ds.d)
        batches = []

        def recording(*args):
            for batch in minibatch_iter(*args):
                batches.append(batch)
                yield batch

        monkeypatch.setattr(inference, "minibatch_iter", recording)
        monkeypatch.setattr(inference, "kmeanspp_init", lambda X, m, rng: Z)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=3,
                                  conv_threshold=0.0, init_params=params, seed=0))
        idx = batches[0]
        state = init_state(Z, params)
        kmu, var = build_gram(ds.X[idx], state.mm).marginals(state.mu, state.Sigma)
        c = np.sqrt(var + kmu * kmu)
        assert res.trace[0, 2] == elbo(state, ds.y[idx], c, kmu, var, 4.0)

    def test_a_short_batch_is_scaled_by_n_over_its_size(self, monkeypatch):
        # 60 rows in batches of 25 end each epoch with a batch of 10: its
        # bound estimate, natural gradient and hyperparameter step take
        # n/|S| = 6, the full batches 60/25.  The last bound is final_elbo's.
        ds, _ = _toy_problem(n=60, m=6)
        y_at = {"elbo": 1, "natural_gradient": 2, "hyper_step": 3}
        seen = {name: [] for name in y_at}
        estimates = []

        def recording(name, fn):
            def wrapper(*args):
                seen[name].append((args[y_at[name]].size, args[-1]))
                out = fn(*args)
                estimates.append(out)
                return out
            return wrapper

        for name in y_at:
            monkeypatch.setattr(inference, name, recording(name, getattr(inference, name)))
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=25, max_iters=6,
                                  conv_threshold=0.0, hyper_every=3, seed=0))
        full, short = (25, 60 / 25), (10, 6.0)
        assert seen["natural_gradient"] == [full, full, short] * 2
        assert seen["elbo"] == seen["natural_gradient"] + [(60, 1.0)]
        assert seen["hyper_step"] == [short, short]
        bounds = [e for e in estimates if isinstance(e, float)]
        np.testing.assert_array_equal(res.trace[:, 2], bounds[:6])
        assert res.final_elbo == bounds[6]

    @pytest.mark.parametrize("hyper_every", [0, 5])
    def test_closing_tilts_and_bound_match_kappa_form(self, hyper_every):
        ds, _ = _toy_problem(n=60, m=6)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=20,
                                  conv_threshold=0.0, hyper_every=hyper_every, seed=0))
        c = tilts(res.state, ds.X)
        assert res.final_elbo == pytest.approx(elbo_kappa_form(res.state, ds, c), rel=1e-12)

    @pytest.mark.parametrize("adam_lr", [0.02, 1e300])
    def test_state_holds_the_factorization_at_its_params(self, adam_lr):
        # Accepted steps replace mm, which carries the params; at
        # adam_lr=1e300 every proposal is out of range, so every step is
        # reverted.
        ds, _ = _toy_problem(n=60, m=6)
        res = fit(ds, TrainConfig(num_inducing=6, batch_size=15, max_iters=10,
                                  conv_threshold=0.0, hyper_every=1, adam_lr=adam_lr, seed=0))
        initial = KernelParams.default(ds.d)
        assert (res.state.params == initial) == (adam_lr == 1e300)
        _assert_factorization(res.state.mm, res.state.Z, res.state.params)

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
                                      heldout_frac=0.1, hyper_every=0, seed=0))
            counts.append((res.n_iters, len(calls)))
        assert counts[1][0] > counts[0][0]
        assert counts[0][1] == counts[1][1] == 1

    def test_inducing_count_above_the_rows_fits_the_full_gp(self, monkeypatch):
        # m is capped at the training rows as the batch size is; fit raised
        # "need 1 <= num_inducing <= n" at m = n + 1.
        rng = np.random.default_rng(26)
        X = rng.normal(size=(10, 2))
        ds = Dataset(X=X, y=np.where(X[:, 0] > 0, 1.0, -1.0))

        def refuse(*args):
            raise AssertionError("kmeanspp_init called at m > n")

        monkeypatch.setattr(inference, "kmeanspp_init", refuse)
        a, b = (fit(ds, TrainConfig(num_inducing=m, batch_size=5, max_iters=3, hyper_every=2))
                for m in (ds.n, ds.n + 1))
        for name in ("eta1", "eta2", "Z"):
            assert np.array_equal(getattr(a.state, name), getattr(b.state, name))
        assert a.state.params == b.state.params
        assert np.array_equal(a.trace[:, [0, 2, 3]], b.trace[:, [0, 2, 3]])
        assert a.final_elbo == b.final_elbo

    @pytest.mark.parametrize("heldout_frac", [None, 0.25])
    def test_every_training_row_is_an_inducing_input_at_m_equal_n(self, heldout_frac,
                                                                  monkeypatch):
        # On distinct rows k-means++ at m = n returns a permutation of the
        # rows; fit takes them in row order and runs no k-means at all.
        ds, _ = _toy_problem(n=40, m=4)

        def refuse(*args):
            raise AssertionError("kmeanspp_init called at m = n")

        monkeypatch.setattr(inference, "kmeanspp_init", refuse)
        res = fit(ds, TrainConfig(num_inducing=ds.n, batch_size=10, max_iters=4,
                                  heldout_frac=heldout_frac, hyper_every=2, seed=3))
        if heldout_frac is None:
            assert np.array_equal(res.state.Z, ds.X)
        else:
            rows = {tuple(x) for x in ds.X} - {tuple(x) for x in res.heldout.X}
            assert res.state.Z.shape == (ds.n - res.heldout.n, ds.d)
            assert {tuple(z) for z in res.state.Z} == rows

    def test_heldout_fraction_that_leaves_no_training_rows(self):
        ds, _ = _toy_problem(n=2, m=1)
        with pytest.raises(ValueError, match="^heldout fraction leaves no training data$"):
            fit(ds, TrainConfig(num_inducing=1, heldout_frac=0.9))

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
    cols = [TRACE_COLUMNS.index(name) for name in ("iter", "elbo_estimate", "rho")]
    assert np.array_equal(b.trace[:, cols], a.trace[:, cols])
    assert (b.final_elbo, b.n_iters) == (a.final_elbo, a.n_iters)
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, X_test))
    np.testing.assert_allclose(p_b, 1.0 - p_a, rtol=0.0, atol=1e-15)


@st.composite
def _flip_cases(draw):
    """A small dataset and a TrainConfig under the natural-parameter rule."""
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, draw(st.integers(1, 4))))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    config = TrainConfig(
        num_inducing=draw(st.integers(1, n)),
        batch_size=draw(st.integers(1, n)),
        max_iters=draw(st.integers(0, 30)),
        fixed_lr=draw(st.sampled_from([None, 0.3, 1.0])),
        hyper_every=draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 1000)),
    )
    return Dataset(X=X, y=y), config


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_flip_cases())
def test_label_flip_negates_eta1_over_the_config_space(case):
    # The parametrized test above at three configurations, here over the
    # step rules, hyperparameter schedules and batch, inducing and data sizes.
    ds, config = case
    a = fit(ds, config)
    b = fit(Dataset(X=ds.X, y=-ds.y), config)
    assert np.array_equal(b.state.eta1, -a.state.eta1)
    assert np.array_equal(b.state.eta2, a.state.eta2)
    assert b.state.params == a.state.params
    cols = [TRACE_COLUMNS.index(name) for name in ("iter", "elbo_estimate", "rho")]
    assert np.array_equal(b.trace[:, cols], a.trace[:, cols])
    assert (b.final_elbo, b.n_iters) == (a.final_elbo, a.n_iters)


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
def test_inputs_far_from_the_origin_keep_their_digits(kwargs, logistic_data, monkeypatch):
    # Translating X and Z by 1e5 leaves only the round-off of X + 1e5 itself
    # when the kernel takes |x - z|^2 about Z's whole-number centre: gaps of
    # 9.7e-12 and 2.8e-11 here.  Expanded about the origin, the class
    # probabilities moved by 5.0e-5 and 5.2e-3.
    ds, X_test = logistic_data
    Z = ds.X[:40]
    monkeypatch.setattr(inference, "kmeanspp_init", lambda X, m, rng: Z)
    a = fit(ds, TrainConfig(**kwargs, num_inducing=40))
    monkeypatch.setattr(inference, "kmeanspp_init", lambda X, m, rng: Z + 1e5)
    b = fit(Dataset(X=ds.X + 1e5, y=ds.y), TrainConfig(**kwargs, num_inducing=40))
    p_a = class_prob(*latent_predict(a.state, X_test))
    p_b = class_prob(*latent_predict(b.state, X_test + 1e5))
    np.testing.assert_allclose(p_b, p_a, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("kwargs, tol", [
    ({"fixed_lr": 1.0, "hyper_every": 0}, (1e-12, 1e-13)),
    ({"fixed_lr": 0.5, "hyper_every": 5}, (1e-9, 1e-9)),
    ({"hyper_every": 5}, (1e-9, 1e-9)),
])
def test_permuting_the_rows_of_a_full_batch_fit_moves_it_only_by_round_off(
        kwargs, tol, logistic_data, monkeypatch):
    # With every row in the batch and Z pinned, nothing depends on the row
    # order but the order of the sums.  Measured on these 600 rows: the unit
    # step converges in 11 iterations with gaps of 8.6e-16 (eta) and 7.8e-15
    # (class_prob).  The two runs with Adam steps go all 1000 iterations, and
    # Adam's step, normalised by the gradient's own size, carries the
    # round-off of a gradient near zero into the parameters: 6.6e-11 (eta)
    # and 2.2e-11 (class_prob).
    ds, X_test = logistic_data
    ds = ds.subset(np.arange(600))
    perm = np.random.default_rng(7).permutation(ds.n)
    Z = ds.X[:40]
    monkeypatch.setattr(inference, "kmeanspp_init", lambda X, m, rng: Z)
    config = TrainConfig(**kwargs, batch_size=ds.n, num_inducing=40)
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
