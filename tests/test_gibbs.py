"""Tests for the exact Gibbs sampler and the MCMC-vs-VI comparison report."""

import numpy as np
import pytest
from scipy.special import expit as sigmoid

from pggpc import gibbs
from pggpc.gibbs import (
    ComparisonReport,
    _safe_corr,
    compare_to_vi,
    f_conditional,
    gibbs_run,
)
from pggpc.kernel import KernelParams, chol_with_escalation, factorize
from pggpc.model import Dataset, VariationalState
from pggpc.prediction import class_prob

from oracles import f_conditional_dense


def _spd(rng, n):
    B = rng.normal(size=(n, n))
    return B @ B.T + n * np.eye(n)


def _batch_means_se(draws, n_batches=20):
    """Standard error of the chain mean that respects autocorrelation."""
    usable = draws[: draws.size - draws.size % n_batches]
    means = usable.reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batches)


def _draw_maps(K, omega, y, L_K=None):
    """The draw of f_conditional as f(z) = mean + A z[0] + C z[1].

    Returns the zero-noise draw and [A | C], probed with unit vectors and
    y = 0 so that each call returns one column exactly.
    """
    n = K.shape[0]
    if L_K is None:
        L_K = np.linalg.cholesky(K)
    mean = f_conditional(K, L_K, K @ (0.5 * y), omega, np.zeros((2, n)))
    units = np.eye(2 * n).reshape(2 * n, 2, n)
    AC = np.array([f_conditional(K, L_K, np.zeros(n), omega, z) for z in units]).T
    return mean, AC


class TestFConditional:
    # The draw is a linear map of the standard normals: its zero-noise value
    # must be the dense oracle's mean, and A A^T + C C^T its covariance.
    def test_matches_direct_inversion(self):
        rng = np.random.default_rng(0)
        K = _spd(rng, 5)
        omega = rng.uniform(0.1, 2.0, size=5)
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        mean, AC = _draw_maps(K, omega, y)
        mean_ref, Sw_ref = f_conditional_dense(K, omega, y)
        np.testing.assert_allclose(AC @ AC.T, Sw_ref, rtol=1e-9)
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-9)
        np.testing.assert_allclose(Sw_ref, np.linalg.inv(np.linalg.inv(K) + np.diag(omega)),
                                   rtol=1e-9)

    def test_near_zero_omega_branch_agrees(self):
        # Tiny omega entries make Omega^{-1} explode; the draw never divides
        # by omega, and the oracle switches to the direct precision form.
        rng = np.random.default_rng(1)
        K = _spd(rng, 4)
        omega = np.array([1e-14, 0.5, 1.2, 1e-13])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        mean, AC = _draw_maps(K, omega, y)
        mean_ref, Sw_ref = f_conditional_dense(K, omega, y)
        np.testing.assert_allclose(AC @ AC.T, Sw_ref, rtol=1e-9)
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-9)

    @pytest.mark.parametrize("omega", [[0.0, 0.0, 0.0, 0.0], [0.0, 0.7, 0.0, 2.5]])
    def test_zero_omega_exactly(self, omega):
        # Nothing in the draw divides by omega, so omega = 0 is exact; with
        # every omega zero the conditional is N(K y / 2, K).
        rng = np.random.default_rng(3)
        K = _spd(rng, 4)
        omega = np.array(omega)
        y = np.array([1.0, -1.0, -1.0, 1.0])
        mean, AC = _draw_maps(K, omega, y)
        mean_ref, Sw_ref = f_conditional_dense(K, omega, y)
        np.testing.assert_allclose(AC @ AC.T, Sw_ref, rtol=1e-9)
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-9)
        if not omega.any():
            np.testing.assert_allclose(AC @ AC.T, K, rtol=1e-12)
            np.testing.assert_allclose(mean, K @ (0.5 * y), rtol=1e-12)

    def test_identity_prior_closed_form(self):
        # With K = I the conditional factorizes: var_i = 1/(1 + omega_i).
        omega = np.array([0.25, 4.0])
        y = np.array([1.0, -1.0])
        mean, AC = _draw_maps(np.eye(2), omega, y)
        Sw = AC @ AC.T
        np.testing.assert_allclose(np.diag(Sw), 1.0 / (1.0 + omega), rtol=1e-12)
        np.testing.assert_allclose(Sw[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(mean, 0.5 * y / (1.0 + omega), rtol=1e-12)

    def test_covariance_is_symmetric_positive_definite(self):
        rng = np.random.default_rng(2)
        K = _spd(rng, 6)
        _, AC = _draw_maps(K, rng.uniform(0.05, 3.0, size=6), np.ones(6))
        Sw = AC @ AC.T
        np.testing.assert_array_equal(Sw, Sw.T)
        assert np.all(np.linalg.eigvalsh(Sw) > 0.0)


def _independent_two_points():
    """The prior factorization and labels of two inputs so far apart the kernel
    renders them independent."""
    X = np.array([[0.0], [100.0]])
    return factorize(X, KernelParams(0.0)), np.array([1.0, -1.0])


def _quadrature_posterior(y_i, prior_var):
    """Grid-quadrature mean/variance of p(f) ~ sigmoid(y f) N(f; 0, prior_var)."""
    f = np.linspace(-12.0, 12.0, 20001)
    w = sigmoid(y_i * f) * np.exp(-0.5 * f**2 / prior_var)
    Z = np.trapezoid(w, f)
    mean = np.trapezoid(f * w, f) / Z
    var = np.trapezoid((f - mean) ** 2 * w, f) / Z
    return mean, var


class TestGibbsRun:
    def test_posterior_moments_match_quadrature(self):
        # With a diagonal prior the exact posterior factorizes into 1-D
        # logistic-Gaussian integrals the chain must reproduce.
        mm, y = _independent_two_points()
        samples = gibbs_run(mm, y, iters=8500, burn_in=500, thin=2, seed=42)
        for i in range(2):
            draws = samples[:, i]
            ref_mean, ref_var = _quadrature_posterior(y[i], mm.k_diag)
            se = _batch_means_se(draws)
            assert draws.mean() == pytest.approx(ref_mean, abs=4.5 * se + 0.005)
            assert draws.var(ddof=1) == pytest.approx(ref_var, abs=0.06)

    def test_label_flip_mirrors_the_posterior(self):
        mm, y = _independent_two_points()
        base = gibbs_run(mm, y, iters=3000, burn_in=500, thin=2, seed=7)
        flipped = gibbs_run(mm, -y, iters=3000, burn_in=500, thin=2, seed=8)
        p_base = sigmoid(base).mean(axis=0)
        p_flip = sigmoid(flipped).mean(axis=0)
        np.testing.assert_allclose(p_flip, 1.0 - p_base, atol=0.05)

    def test_seed_reproducibility(self):
        mm, y = _independent_two_points()
        a = gibbs_run(mm, y, iters=200, burn_in=50, thin=2, seed=3)
        b = gibbs_run(mm, y, iters=200, burn_in=50, thin=2, seed=3)
        c = gibbs_run(mm, y, iters=200, burn_in=50, thin=2, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shapes_and_thinning(self):
        rng = np.random.default_rng(9)
        mm = factorize(rng.normal(size=(3, 2)), KernelParams(0.0))
        samples = gibbs_run(mm, np.array([1.0, -1.0, 1.0]), iters=50, burn_in=10, thin=4,
                            seed=0)
        assert samples.shape == (10, 3)

    def test_iters_must_exceed_burn_in(self):
        mm, y = _independent_two_points()
        with pytest.raises(ValueError, match="exceed"):
            gibbs_run(mm, y, iters=100, burn_in=100)

    @pytest.mark.parametrize("kwargs, name", [
        ({"thin": 0}, "thin"),
        ({"thin": -1}, "thin"),
        ({"burn_in": -5}, "burn_in"),
        ({"iters": 0, "burn_in": -1}, "burn_in"),
        ({"iters": 6, "burn_in": 5}, "iters"),  # one stored sample has no variance
    ])
    def test_chain_arguments_out_of_range_name_the_argument(self, kwargs, name):
        mm, y = _independent_two_points()
        with pytest.raises(ValueError, match=f"^{name} must"):
            gibbs_run(mm, y, **{"iters": 20, "burn_in": 5, **kwargs})

    @pytest.mark.parametrize("y", [np.ones(3), np.ones(1), np.ones((2, 1))])
    def test_labels_not_one_per_inducing_input_name_y(self, y):
        mm, _ = _independent_two_points()
        with pytest.raises(ValueError, match=r"^y must hold one label per inducing input, m=2"):
            gibbs_run(mm, y, iters=20, burn_in=5)

    def test_one_factorization_per_sweep(self, monkeypatch):
        # chol(B) once per sweep, and none of K, which the factorization
        # holds; forming and factorizing Sigma_w would cost two per sweep.
        rng = np.random.default_rng(4)
        mm = factorize(rng.normal(size=(6, 2)), KernelParams(0.0))
        calls = []

        def counting(K, base_jitter):
            calls.append(K.shape)
            return chol_with_escalation(K, base_jitter)

        monkeypatch.setattr(gibbs, "chol_with_escalation", counting)
        gibbs_run(mm, np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]), iters=37, burn_in=7, thin=3,
                  seed=0)
        assert calls == [(6, 6)] * 37

    def test_escalated_prior_covariance_is_used_throughout(self, monkeypatch):
        # Duplicated inputs with a jitter below round-off: K_mm fails to
        # factorize as given, so the factorization escalates, and the chain
        # must draw the prior and the conditional from that factorization's
        # own K_mm + extra I and its factor.
        X = np.repeat([[0.0, 0.0], [0.6, -0.3], [1.0, 1.0]], 3, axis=0)
        y = np.repeat([1.0, -1.0, 1.0], 3)
        mm = factorize(X, KernelParams(0.0, log_jitter=float(np.log(1e-16))))
        assert mm.jitter_extra > 0.0
        seen = []
        draw = gibbs.f_conditional

        def recording(K, L_K, half_Ky, omega, z):
            seen.append((K, L_K, half_Ky, omega))
            return draw(K, L_K, half_Ky, omega, z)

        monkeypatch.setattr(gibbs, "f_conditional", recording)
        samples = gibbs_run(mm, y, iters=40, burn_in=10, thin=2, seed=5)
        assert np.all(np.isfinite(samples))
        assert samples.shape == (15, 9)

        assert len(seen) == 40
        assert all(K is mm.K_mm and L_K is mm.chol_Kmm for K, L_K, _, _ in seen)
        K, L_K, half_Ky, omega = seen[-1]
        np.testing.assert_array_equal(half_Ky, mm.K_mm @ (0.5 * y))
        _, AC = _draw_maps(K, omega, y, L_K=L_K)
        _, Sw_ref = f_conditional_dense(mm.K_mm, omega, y)
        np.testing.assert_allclose(AC @ AC.T, Sw_ref, rtol=1e-9, atol=1e-12)


def _full_gp_state(dataset, params, rng, spread=0.4):
    """A full-GP (Z = X) state with mild random moments for comparisons."""
    n = dataset.n
    mu = rng.normal(scale=spread, size=n)
    Sigma = np.diag(rng.uniform(0.3, 0.8, size=n))
    return VariationalState.from_natural(
        np.linalg.solve(Sigma, mu), -0.5 * np.linalg.inv(Sigma), dataset.X, params
    )


class TestCompareToVi:
    def test_requires_full_gp_state(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
        params = KernelParams(0.0)
        state = _full_gp_state(data, params, rng)
        sparse = VariationalState.from_natural(
            state.eta1[:3], state.eta2[:3, :3], data.X[:3], params
        )
        with pytest.raises(ValueError, match="Z = X"):
            compare_to_vi(np.zeros((5, 4)), sparse, data)

    def test_chain_size_mismatch_raises(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
        state = _full_gp_state(data, KernelParams(0.0), rng)
        with pytest.raises(ValueError, match="disagree"):
            compare_to_vi(np.zeros((5, 3)), state, data)

    def test_matching_posteriors_score_near_perfectly(self):
        # A synthetic "chain" drawn i.i.d. from the state's own marginals
        # should agree up to Monte Carlo error.
        rng = np.random.default_rng(21)
        data = Dataset(rng.normal(size=(4, 2)),
                       np.array([1.0, -1.0, 1.0, 1.0]))
        state = _full_gp_state(data, KernelParams(0.0), rng, spread=1.5)
        v = np.diag(state.Sigma)
        S = 40_000
        F = state.mu + np.sqrt(v) * rng.standard_normal(size=(S, 4))

        report = compare_to_vi(F, state, data)
        np.testing.assert_allclose(report.mcmc_mean, state.mu, atol=0.02)
        np.testing.assert_allclose(report.mcmc_var, v, rtol=0.05)
        np.testing.assert_allclose(report.vi_ppos, class_prob(state.mu, v), rtol=1e-12)
        assert report.mean_corr > 0.999
        assert report.var_corr > 0.99
        assert report.prob_corr > 0.999
        assert report.mean_abs_prob_gap < 0.01
        assert report.max_abs_prob_gap < 0.02

    def test_safe_corr_degenerate_inputs(self):
        assert _safe_corr(np.ones(4), np.ones(4)) == 1.0
        assert _safe_corr(np.ones(4), np.zeros(4)) == 0.0
        x = np.array([0.1, 0.4, 0.2, 0.9])
        assert _safe_corr(x, 2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_safe_corr_of_values_whose_squares_overflow(self):
        # Chain variances near 1e300 (gibbs-check --amplitude 1e50) overflowed
        # np.std; the correlation is scale-free, and stays bit for bit the same.
        x = np.array([0.1, 0.4, 0.2, 0.9])
        y = np.array([0.3, 0.1, 0.2, 0.8])
        assert _safe_corr(2.0**990 * x, 2.0**-900 * y) == _safe_corr(x, y)
        assert _safe_corr(1e300 * x, 1e300 * x) == pytest.approx(1.0, abs=1e-12)
