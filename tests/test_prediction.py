"""Tests for predictive marginals, class probabilities, and test metrics."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit as sigmoid
from scipy.special import ndtr

from pggpc import kernel
from pggpc.kernel import KernelParams, factorize
from pggpc.inference import TrainConfig, fit
from pggpc.model import Dataset, VariationalState, load_checkpoint, save_checkpoint
from pggpc.prediction import (_ROW_BLOCK, _SINGLE_RULE_VAR, EvalReport, class_prob, evaluate,
                               latent_predict, predicted_label)

from oracles import gauss_hermite_prob, kern_matrix, prior_state

# Reference values computed with 40-digit quadrature of the logistic-Gaussian
# integral; frozen here so regressions in the rule are caught exactly.
CLASS_PROB_1_4 = 0.64772643852586868508
CLASS_PROB_0_1 = 0.5
CLASS_PROB_2_QUARTER = 0.87099346362277842304
CLASS_PROB_M3_9 = 0.19438573608839075974


def _random_state(rng, m=3, d=2, params=None):
    """A variational state with non-trivial (mu, Sigma) for prediction tests."""
    params = params or KernelParams(log_lengthscale=np.log(0.8), log_amplitude=np.log(1.3))
    Z = rng.normal(size=(m, d))
    B = rng.normal(size=(m, m))
    Sigma = B @ B.T + 0.1 * np.eye(m)
    mu = rng.normal(size=m)
    eta2 = -0.5 * np.linalg.inv(Sigma)
    eta1 = np.linalg.solve(Sigma, mu)
    return VariationalState.from_natural(eta1, eta2, Z, params)


class TestClassProb:
    @pytest.mark.parametrize(
        "mu, var, expected, tol",
        [
            (1.0, 4.0, CLASS_PROB_1_4, 1e-10),
            (0.0, 1.0, CLASS_PROB_0_1, 1e-13),
            (2.0, 0.25, CLASS_PROB_2_QUARTER, 5e-13),
            (-3.0, 9.0, CLASS_PROB_M3_9, 1e-10),
        ],
    )
    def test_frozen_oracle_values(self, mu, var, expected, tol):
        assert class_prob(mu, var) == pytest.approx(expected, abs=tol)

    def test_zero_variance_is_sigmoid(self):
        z = np.array([-7.0, -1.3, 0.0, 0.4, 6.0])
        np.testing.assert_allclose(class_prob(z, 0.0), sigmoid(z), atol=1e-14)

    def test_probability_is_half_at_zero_mean(self):
        for var in (0.09, 1.0, 4.0, 25.0):
            assert class_prob(0.0, var) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("var", [1e-6, 0.3, 1.000001, _SINGLE_RULE_VAR])
    def test_zero_mean_is_exactly_half_whatever_rows_it_is_scored_with(self, var):
        # The 20-node rule gave 0.5 - 5.6e-17 to (0, 1.000001) scored alone and
        # exactly 0.5 as the first of two rows, so its label hung on the file.
        rng = np.random.default_rng(31)
        others_mu, others_var = rng.normal(size=7), rng.uniform(0.0, 1.0, 7)
        assert class_prob(0.0, var) == 0.5
        for k in range(1, 8):
            p = class_prob(np.r_[0.0, others_mu[:k]], np.r_[var, others_var[:k]])
            assert p[0] == 0.5

    def test_narrow_rule_labels_by_the_sign_of_the_mean(self):
        # Each pair of nodes +/- x_k adds a term of the sign of mu*, so no
        # summation order moves a probability across 1/2.
        mu = np.array([-1e-300, -1e-17, -1e-9, 1e-17, 1e-9, 1e-300])
        for var in (0.0, 0.5, _SINGLE_RULE_VAR):
            p = class_prob(mu, var)
            assert np.all(np.where(mu < 0.0, p <= 0.5, p >= 0.5))

    def test_tails_stay_in_the_unit_interval(self):
        # The 20-node sum of sigmoids gave 1 + 2.2e-16 at mu* >= 40, so the
        # probability of -1 was negative; the pair sum reaches -1.1e-16 at
        # mu* = -40 unless clipped.
        mu = np.array([-60.0, -40.0, -38.0, 38.0, 40.0, 60.0])
        for var in (0.0, 0.5, _SINGLE_RULE_VAR):
            p = class_prob(mu, var)
            assert np.all((p >= 0.0) & (p <= 1.0))

    def test_reflection_identity(self):
        mu = np.array([-4.0, -1.5, 0.3, 2.0, 5.0])
        for var in (0.25, 1.0, 16.0):
            np.testing.assert_allclose(
                class_prob(-mu, var), 1.0 - class_prob(mu, var), atol=1e-13
            )

    def test_wide_branch_matches_adaptive_quadrature(self):
        # 132 points above the single-rule cap of 1.0625; quad integrates
        # over the standard-normal variable out to +/- 12.
        mu, var = (g.ravel() for g in np.meshgrid(np.linspace(-5.0, 5.0, 11),
                                                   np.linspace(1.07, 25.0, 12)))

        def reference(m, v):
            integrand = lambda z: sigmoid(m + np.sqrt(v) * z) * np.exp(-0.5 * z * z)
            value = quad(integrand, -12.0, 12.0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            return value / np.sqrt(2.0 * np.pi)

        expected = np.array([reference(m, v) for m, v in zip(mu, var)])
        np.testing.assert_allclose(class_prob(mu, var), expected, rtol=0.0, atol=1e-12)

    def test_wide_branch_reflection_identity(self):
        rng = np.random.default_rng(23)
        mu = rng.uniform(-5.0, 5.0, 300)
        var = rng.uniform(1.07, 25.0, 300)
        np.testing.assert_allclose(
            class_prob(-mu, var), 1.0 - class_prob(mu, var), rtol=0.0, atol=1e-15
        )

    def test_monotone_in_mean(self):
        mu = np.linspace(-6.0, 6.0, 41)
        for var in (0.5, 9.0):
            p = class_prob(mu, var)
            assert np.all(np.diff(p) > 0.0)
            assert np.all((p > 0.0) & (p < 1.0))

    def test_widening_variance_shrinks_toward_half(self):
        variances = np.array([0.0, 0.5, 2.0, 8.0, 32.0])
        p = class_prob(2.0, variances)
        assert np.all(np.diff(p) < 0.0)
        assert np.all(p > 0.5)

    def test_rule_refinement_agrees(self):
        # The 20-node rule has already converged: refining to 100 nodes moves
        # no probability by more than ~1e-11 anywhere on this grid's variances
        # up to 1.0625, the ones that take it.
        mus = np.linspace(-5.0, 5.0, 9)
        sds = np.linspace(0.1, 5.0, 7)
        worst = 0.0
        for mu in mus:
            for sd in sds[sds**2 <= _SINGLE_RULE_VAR]:
                worst = max(worst, abs(class_prob(mu, sd**2) - gauss_hermite_prob(mu, sd**2)))
        assert worst < 1e-8

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(20240811)
        draws = sigmoid(1.0 + 2.0 * rng.standard_normal(200_000))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert class_prob(1.0, 4.0) == pytest.approx(draws.mean(), abs=3.5 * se)

    def test_negative_variance_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            class_prob(0.0, -1e-3)
        with pytest.raises(ValueError, match="nonnegative"):
            class_prob(np.zeros(3), np.array([1.0, -0.5, 2.0]))

    def test_broadcasting_and_scalar_return(self):
        p = class_prob(1.0, 2.0)
        assert np.ndim(p) == 0
        assert class_prob(np.zeros(3), np.ones(3)).shape == (3,)
        assert class_prob(np.zeros((2, 3)), 4.0).shape == (2, 3)
        assert class_prob(0.5, np.ones((4, 1))).shape == (4, 1)

    def test_vast_variance_takes_the_step_expansion(self):
        # The wide rule's grid grows with sigma*: at variance 1e16 it would
        # hold 3.6e9 nodes a row.  Past 1e8 the expansion about the unit step
        # takes over, continuous at the switch and symmetric.
        sd = 1e4
        mu = np.array([-3.0 * sd, -0.4 * sd, -7.0, 0.0, 2.0, sd])
        below = class_prob(mu, np.full(mu.size, sd * sd * (1.0 - 1e-12)))
        above = class_prob(mu, np.full(mu.size, sd * sd * (1.0 + 1e-12)))
        np.testing.assert_allclose(above, below, atol=1e-15)
        p = class_prob(np.array([-1e9, 0.0, 1e9]), 1e20)
        np.testing.assert_allclose(p, [ndtr(-0.1), 0.5, ndtr(0.1)], rtol=1e-12)
        assert class_prob(3.0, 1e300) == 0.5

    def test_mixed_batch_matches_pointwise(self):
        # Narrow and wide variances in one call take different internal paths;
        # the batched answer must match per-point evaluation bit-for-bit close.
        mu = np.array([-2.0, 0.7, 3.0, -1.0])
        var = np.array([0.25, 4.0, 1.0, 25.0])
        batched = class_prob(mu, var)
        single = np.array([class_prob(m, v) for m, v in zip(mu, var)])
        np.testing.assert_allclose(batched, single, atol=1e-14)


def _packed_state(rng, m, d=2, n_train=200):
    """m inducing points packed in the unit ball (cond K_mm ~ 4e7 at the
    default jitter), with q(u) in the form every fit produces:
    Sigma^{-1} = K_mm^{-1} + kappa^T Omega kappa, eta1 = kappa^T y / 2."""
    params = KernelParams(log_lengthscale=np.log(0.8), log_amplitude=np.log(1.3))
    Z = rng.normal(size=(m, d))
    Z *= rng.random((m, 1)) ** (1.0 / d) / np.linalg.norm(Z, axis=1, keepdims=True)
    K = kern_matrix(Z, Z, params, same=True)
    kappa = np.linalg.solve(K, kern_matrix(rng.normal(size=(n_train, d)), Z, params).T).T
    y = np.where(rng.random(n_train) < 0.5, -1.0, 1.0)
    eta2 = -0.5 * (np.linalg.inv(K) + 0.25 * kappa.T @ kappa)
    return VariationalState.from_natural(0.5 * kappa.T @ y, eta2, Z, params)


class TestLatentPredict:
    @pytest.mark.parametrize("m, n_star, packed", [
        pytest.param(4, 6, False, id="small"),
        pytest.param(4, 2 * _ROW_BLOCK + 3, False, id="blocks"),  # two full row blocks and a part
        pytest.param(40, 6, True, id="ill-conditioned"),
    ])
    def test_matches_dense_linear_algebra(self, m, n_star, packed):
        rng = np.random.default_rng(3)
        state = _packed_state(rng, m) if packed else _random_state(rng, m=m, d=2)
        Xs = rng.normal(size=(n_star, 2))

        mu_star, var_star = latent_predict(state, Xs)

        K = kern_matrix(state.Z, state.Z, state.params, same=True)
        A = kern_matrix(Xs, state.Z, state.params)
        W = np.linalg.solve(K, A.T)
        ref_mu = A @ np.linalg.solve(K, state.mu)
        ref_var = (
            np.diag(kern_matrix(Xs, Xs, state.params, same=True))
            - np.einsum("ij,ji->i", A, W)
            + np.einsum("ji,jk,ki->i", W, state.Sigma, W)
        )
        np.testing.assert_allclose(mu_star, ref_mu, rtol=1e-9)
        np.testing.assert_allclose(var_star, ref_var, rtol=1e-9)

    def test_prior_state_predicts_prior(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 2))
        y = np.sign(X[:, 0]) + (X[:, 0] == 0)
        data = Dataset(X, y)
        state = prior_state(data, 5, KernelParams(0.0), rng)

        Xs = rng.normal(size=(7, 2))
        mu_star, var_star = latent_predict(state, Xs)
        np.testing.assert_allclose(mu_star, 0.0, atol=1e-12)
        prior_var = np.diag(kern_matrix(Xs, Xs, state.params, same=True))
        np.testing.assert_allclose(var_star, prior_var, rtol=1e-8)

    def test_far_point_reverts_to_prior(self):
        rng = np.random.default_rng(5)
        state = _random_state(rng, m=3, d=2)
        mu_star, var_star = latent_predict(state, np.array([80.0, -80.0]))
        prior_var = state.params.amplitude**2 + state.params.jitter
        assert mu_star == pytest.approx(0.0, abs=1e-12)
        assert var_star == pytest.approx(prior_var, rel=1e-10)
        assert class_prob(mu_star, var_star) == pytest.approx(0.5, abs=1e-12)

    def test_kernel_rows_stay_within_a_block(self, monkeypatch):
        # Scratch is O(block * m) for any test-set size: no kernel matrix
        # built while predicting has more than _ROW_BLOCK rows.  Every such
        # matrix is a distance buffer of the inducing side first.
        rows = []
        neg_half_sq = kernel._Inducing.neg_half_sq

        def counting(self, X):
            rows.append(X.shape[0])
            return neg_half_sq(self, X)

        monkeypatch.setattr(kernel._Inducing, "neg_half_sq", counting)
        rng = np.random.default_rng(19)
        state = _random_state(rng, m=5)
        mu_star, _ = latent_predict(state, rng.normal(size=(3 * _ROW_BLOCK + 1, 2)))
        assert mu_star.shape == (3 * _ROW_BLOCK + 1,)
        assert rows and max(rows) <= _ROW_BLOCK

    def test_gram_reuse_matches_fresh_factorization(self):
        # state.mm is a fresh factorization at (Z, params), so predicting
        # from it matches predicting from any other one at the same (Z, params).
        rng = np.random.default_rng(13)
        state = _random_state(rng, m=4)
        fresh = factorize(state.Z, state.params)
        np.testing.assert_array_equal(state.mm.K_mm, fresh.K_mm)
        np.testing.assert_array_equal(state.mm.chol_Kmm, fresh.chol_Kmm)
        Xs = rng.normal(size=(5, 2))
        reused = replace(state, mm=fresh)
        for got, want in zip(latent_predict(state, Xs), latent_predict(reused, Xs)):
            np.testing.assert_array_equal(got, want)

    def test_prediction_and_scoring_do_not_factorize_kmm(self, monkeypatch, tmp_path):
        # A fitted state and a loaded checkpoint carry their factorization.
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 2))
        data = Dataset(X, np.where(X[:, 0] > 0, 1.0, -1.0))
        fitted = fit(data, TrainConfig(num_inducing=5, batch_size=10, max_iters=12, seed=0)).state
        save_checkpoint(tmp_path / "ckpt.json", fitted, seed=0)
        loaded = load_checkpoint(tmp_path / "ckpt.json")[0]
        calls = []
        chol = kernel.chol_with_escalation
        monkeypatch.setattr(kernel, "chol_with_escalation",
                            lambda K, base: calls.append(1) or chol(K, base))
        for state in (fitted, loaded):
            latent_predict(state, X)
            latent_predict(state, X[0])
            evaluate(state, data)
        assert calls == []


def _confident_state(mu_scale=8.0):
    """1-D state whose predictions at z = -5 and +5 are near 0 and 1."""
    Z = np.array([[-5.0], [5.0]])
    params = KernelParams(0.0, log_amplitude=np.log(3.0))
    Sigma = 0.01 * np.eye(2)
    mu = np.array([-mu_scale, mu_scale])
    return VariationalState.from_natural(
        np.linalg.solve(Sigma, mu), -0.5 * np.linalg.inv(Sigma), Z, params
    )


class TestEvaluate:
    def test_correct_predictions_score_zero_error(self):
        state = _confident_state()
        data = Dataset(np.array([[-5.0], [5.0], [-5.0]]), np.array([-1.0, 1.0, -1.0]))
        report = evaluate(state, data)
        assert report.error_rate == 0.0
        assert report.mean_nll < 0.05
        assert report.n == 3

    def test_flipped_labels_are_counted(self):
        state = _confident_state()
        data = Dataset(
            np.array([[-5.0], [5.0], [-5.0], [5.0]]), np.array([-1.0, 1.0, 1.0, -1.0])
        )
        report = evaluate(state, data)
        assert report.error_rate == 0.5
        assert report.mean_nll > 2.0

    def test_probability_floor_bounds_the_loss(self):
        # An essentially certain wrong prediction is clipped at 1e-12, so the
        # per-point loss cannot exceed -log(1e-12).
        state = _confident_state(mu_scale=60.0)
        data = Dataset(np.array([[5.0]]), np.array([-1.0]))
        report = evaluate(state, data)
        assert report.mean_nll == pytest.approx(-np.log(1e-12), rel=1e-12)

    def test_uninformative_predictions_cost_log_two(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(12, 2))
        y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        data = Dataset(X, y)
        state = prior_state(data, 4, KernelParams(0.0), rng)
        report = evaluate(state, data)
        assert report.mean_nll == pytest.approx(np.log(2.0), abs=1e-10)

    def test_a_tie_counts_as_predicting_plus_one(self):
        # A point far from every inducing input has mu* = 0, and here p_pos
        # is exactly 1/2; sign(p_pos - 1/2) matched neither label, so it was
        # an error under both, while predict labels it +1 (p_pos >= 1/2).
        state = _confident_state()
        far = np.array([[1e3]])
        assert class_prob(*latent_predict(state, far)) == 0.5
        assert evaluate(state, Dataset(far, np.array([1.0]))).error_rate == 0.0
        assert evaluate(state, Dataset(far, np.array([-1.0]))).error_rate == 1.0

    def test_labels_are_predicts_labels(self):
        p = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(predicted_label(p), [-1, -1, 1, 1, 1])

    def test_empty_test_set_raises(self):
        state = _confident_state()
        empty = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            evaluate(state, empty)

    def test_report_is_plain_data(self):
        report = EvalReport(error_rate=0.25, mean_nll=0.5, n=4)
        assert (report.error_rate, report.mean_nll, report.n) == (0.25, 0.5, 4)
