"""Tests for the squared-exponential kernel, Gram assembly, and gradients."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, lapack

from pggpc.kernel import (
    FactorizationError,
    KernelParams,
    build_gram,
    chol_inverse,
    chol_with_escalation,
    kern_grad,
    kern_matrix,
    sq_dists,
)
from pggpc.prediction import _ROW_BLOCK

from oracles import kern, kern_grad_dense

EXP_NEG_1 = 0.3678794411714423216  # kernel value at squared distance 2, a = l = 1


def test_kern_reference_value():
    params = KernelParams(log_lengthscale=0.0, log_amplitude=0.0)
    assert kern([0.0, 0.0], [1.0, 1.0], params) == pytest.approx(EXP_NEG_1, rel=1e-14)


def test_kern_same_index_adds_jitter():
    params = KernelParams(0.0, log_jitter=np.log(1e-3))
    x = np.array([0.3, -0.7])
    assert kern(x, x, params) == pytest.approx(1.0, rel=1e-12)
    assert kern(x, x, params, same_index=True) == pytest.approx(1.0 + 1e-3, rel=1e-12)


def test_kern_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        kern([1.0, 2.0], [1.0, 2.0, 3.0], KernelParams(0.0))


def test_kern_hyperparameter_scaling():
    params = KernelParams(log_lengthscale=np.log(2.0), log_amplitude=np.log(3.0))
    x, xp = np.array([0.0]), np.array([2.0])
    assert kern(x, xp, params) == pytest.approx(9.0 * np.exp(-0.5), rel=1e-13)


def test_sq_dists_matches_brute_force():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    Z = rng.normal(size=(4, 3))
    brute = np.array([[np.sum((x - z) ** 2) for z in Z] for x in X])
    np.testing.assert_allclose(sq_dists(X, Z), brute, rtol=1e-12, atol=1e-12)
    assert np.all(sq_dists(X, X) >= 0.0)
    np.testing.assert_allclose(np.diag(sq_dists(X, X)), 0.0, atol=1e-12)


def test_kern_matrix_same_flag_controls_jitter():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(5, 2))
    params = KernelParams(0.0, log_jitter=np.log(1e-4))
    K_plain = kern_matrix(Z, Z, params)
    K_same = kern_matrix(Z, Z, params, same=True)
    np.testing.assert_allclose(np.diag(K_plain), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.diag(K_same), 1.0 + 1e-4, rtol=1e-12)
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_array_equal(K_plain[off], K_same[off])


def test_kern_diag_is_marginal_variance():
    # A bundle's k_diag is the diagonal of the full kernel matrix: a^2 + jitter.
    params = KernelParams(0.0, log_amplitude=np.log(2.0), log_jitter=np.log(1e-5))
    X = np.random.default_rng(1).normal(size=(6, 3))
    diag = np.diag(kern_matrix(X, X, params, same=True))
    np.testing.assert_allclose(diag, 4.0 + 1e-5, rtol=1e-12)
    np.testing.assert_allclose(build_gram(X, X[:2], params).k_diag, diag, rtol=1e-12)


def test_kern_matrix_element_agreement():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 2))
    Z = rng.normal(size=(3, 2))
    params = KernelParams(log_lengthscale=np.log(0.8), log_amplitude=np.log(1.3))
    K = kern_matrix(X, Z, params)
    for i in range(4):
        for j in range(3):
            assert K[i, j] == pytest.approx(kern(X[i], Z[j], params), rel=1e-12)


def test_kern_matrix_matches_the_distance_form():
    # The in-place build reorders the arithmetic of a^2 exp(-d2 / (2 l^2)):
    # entries agree to a few ulp of a^2, and coincident points give a^2.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 8))
    Z = np.vstack([rng.normal(size=(40, 8)), X[:5]])
    params = KernelParams(log_lengthscale=np.log(1.7), log_amplitude=np.log(1.5))
    K = kern_matrix(X, Z, params)
    a2 = params.amplitude**2
    ref = a2 * np.exp(-0.5 * sq_dists(X, Z) / params.lengthscale**2)
    np.testing.assert_allclose(K, ref, rtol=0.0, atol=1e-14 * a2)
    np.testing.assert_allclose(K[np.arange(5), 40 + np.arange(5)], a2, rtol=1e-14)
    assert np.all((K > 0.0) & (K <= a2))


def test_kern_matrix_holds_one_n_by_m_buffer():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(2000, 8))
    Z = rng.normal(size=(300, 8))
    tracemalloc.start()
    try:
        K = kern_matrix(X, Z, KernelParams(0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * K.nbytes


def test_params_array_round_trip_and_validation():
    p = KernelParams(log_lengthscale=0.4, log_amplitude=-0.2, log_jitter=-10.0)
    q = KernelParams.from_array(p.as_array())
    assert p == q
    assert p.lengthscale == pytest.approx(np.exp(0.4))
    assert p.amplitude == pytest.approx(np.exp(-0.2))
    assert p.jitter == pytest.approx(np.exp(-10.0))
    with pytest.raises(ValueError):
        KernelParams(log_lengthscale=np.inf)
    with pytest.raises(ValueError):
        KernelParams(0.0, log_amplitude=np.nan)


@pytest.mark.parametrize("field, value", [
    ("log_lengthscale", 351.0),
    ("log_lengthscale", -400.0),
    ("log_amplitude", 1e308),
    ("log_jitter", -701.0),
    ("log_jitter", np.nan),
])
def test_log_parameter_out_of_range_is_named(field, value):
    # Past these, exp overflows in l, a^2 or the jitter (a traceback, or a
    # RuntimeWarning and an infinite kernel).
    with pytest.raises(ValueError, match=f"^{field} must be finite and at most"):
        KernelParams(**{"log_lengthscale": 0.0, field: value})
    KernelParams(log_lengthscale=-350.0, log_amplitude=350.0, log_jitter=-700.0)


@pytest.mark.parametrize("name, value", [
    ("lengthscale", 0.0), ("lengthscale", -1.0), ("amplitude", 0.0), ("amplitude", np.inf),
    ("jitter", 0.0), ("jitter", -1e-6), ("jitter", np.nan),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_default_names_a_nonpositive_value(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        KernelParams.default(2, **{name: value})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kern_matrix_is_zero_to_points_past_the_float64_square_range():
    params = KernelParams(log_lengthscale=-5.0)
    Z = np.array([[0.0, 0.0], [1.0, -2.0]])
    X = np.array([[1.7e308, 1.7e308], [-1e200, 0.5], [0.5, 0.5]])
    K = kern_matrix(X, Z, params)
    np.testing.assert_array_equal(K[:2], 0.0)
    np.testing.assert_array_equal(K[2], kern_matrix(X[2:], Z, params)[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kern_grad_reads_far_rows_as_clamped():
    # Raw rows near 1e308 overflowed the squared distances of the
    # lengthscale derivative; at +/- 1e150 their kernel terms are zero.
    params = KernelParams(log_lengthscale=0.2)
    Z = np.array([[0.0, 0.0], [1.0, -2.0]])
    X = np.array([[1.7e308, -1.7e308], [0.5, 0.5]])
    rng = np.random.default_rng(4)
    P_K, P_A, p_diag = rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2)
    got = kern_grad(build_gram(X, Z, params), X, Z, params, P_K, P_A, p_diag)
    near = np.clip(X, -1e150, 1e150)
    want = kern_grad(build_gram(near, Z, params), near, Z, params, P_K, P_A, p_diag)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)


def test_chol_escalation_not_needed_for_spd():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5))
    K = A @ A.T + 5.0 * np.eye(5)
    L, extra = chol_with_escalation(K, 1e-6)
    assert extra == 0.0
    np.testing.assert_allclose(L @ L.T, K, rtol=1e-10, atol=1e-10)


def test_chol_escalation_rescues_rank_deficient_matrix():
    # A matrix of all ones is PSD with rank one; bare Cholesky fails but a
    # boosted diagonal succeeds, and the reported extra reflects the boost.
    K = np.ones((4, 4))
    L, extra = chol_with_escalation(K, 1e-6)
    assert extra > 0.0
    assert extra <= 1e-6 * 10**6
    np.testing.assert_allclose(L @ L.T, K + extra * np.eye(4), rtol=1e-8, atol=1e-10)


def test_chol_escalation_gives_up_eventually():
    with pytest.raises(FactorizationError):
        chol_with_escalation(-np.eye(3), 1e-9)


def _brute_bundle(X, Z, params):
    K_mm = kern_matrix(Z, Z, params, same=True)
    K_nm = kern_matrix(X, Z, params)
    kd = np.diag(kern_matrix(X, X, params, same=True))
    kappa = K_nm @ np.linalg.inv(K_mm)
    ktilde = kd - np.einsum("ij,jk,ik->i", kappa, K_mm, kappa)
    return K_mm, K_nm, kd, kappa, np.maximum(ktilde, 0.0)


def test_build_gram_matches_brute_force():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 2))
    Z = rng.normal(size=(4, 2))
    params = KernelParams(log_lengthscale=np.log(1.2))
    gram = build_gram(X, Z, params)
    K_mm, K_nm, kd, kappa, ktilde = _brute_bundle(X, Z, params)
    np.testing.assert_allclose(gram.K_mm, K_mm, rtol=1e-12)
    np.testing.assert_allclose(gram.K_nm, K_nm, rtol=1e-12)
    np.testing.assert_allclose(gram.k_diag, kd, rtol=1e-12)
    np.testing.assert_allclose(gram.kappa, kappa, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(gram.ktilde, ktilde, rtol=1e-6, atol=1e-10)
    np.testing.assert_allclose(
        gram.Kmm_inv, np.linalg.inv(K_mm), rtol=1e-8, atol=1e-10
    )
    sign, logdet = np.linalg.slogdet(K_mm)
    assert sign == 1.0
    assert gram.logdet_Kmm == pytest.approx(logdet, rel=1e-10)
    np.testing.assert_array_equal(gram.Kmm_inv, gram.Kmm_inv.T)


def test_build_gram_residual_nonnegative_and_tiny_on_inducing_points():
    # Evaluating the batch at the inducing inputs themselves leaves only the
    # jitter discrepancy: residual = 2 j - j^2 [K_mm^{-1}]_ii per point.
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(6, 2))
    params = KernelParams(0.0)
    gram = build_gram(Z, Z, params)
    assert np.all(gram.ktilde >= 0.0)
    assert np.all(gram.ktilde <= 2.5 * params.jitter)


def test_build_gram_reuses_inducing_factorization():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(5, 3))
    params = KernelParams(0.0)
    mm = build_gram(np.empty((0, 3)), Z, params)
    batch = rng.normal(size=(8, 3))
    gram = build_gram(batch, Z, params, mm=mm)
    assert gram.K_mm is mm.K_mm
    assert gram.chol_Kmm is mm.chol_Kmm
    fresh = build_gram(batch, Z, params)
    np.testing.assert_allclose(gram.kappa, fresh.kappa, rtol=1e-12)


def test_shared_bundle_reuses_inducing_inverse():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(5, 3))
    params = KernelParams(0.0)
    mm = build_gram(np.empty((0, 3)), Z, params)
    gram = build_gram(rng.normal(size=(8, 3)), Z, params, mm=mm)
    assert gram.Kmm_inv is mm.Kmm_inv


def test_kappa_by_the_shared_inverse_matches_the_solve_at_high_condition():
    # kappa is one GEMM with K_mm^{-1}; against cho_solve on the factor it
    # moved by 8.9e-11 (kappa) and 1.2e-10 (ktilde) at most here.
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(300, 8))
    params = KernelParams(float(np.log(4.0)))
    mm = build_gram(np.empty((0, 8)), Z, params)
    gram = build_gram(rng.normal(size=(100, 8)), Z, params, mm=mm)
    assert 1e7 < np.linalg.cond(gram.K_mm) < 3e7
    kappa = cho_solve((gram.chol_Kmm, True), gram.K_nm.T).T
    ktilde = np.maximum(gram.k_diag - np.sum(kappa * gram.K_nm, axis=1), 0.0)
    np.testing.assert_allclose(gram.kappa, kappa, rtol=0, atol=1e-9)
    np.testing.assert_allclose(gram.ktilde, ktilde, rtol=0, atol=1e-9)


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_chol_inverse_is_the_exact_mirror_of_potri(m):
    # The in-place mirror gives the bits of tril(inv) + tril(inv, -1).T, also
    # when the factor's upper triangle holds values that potri must not read.
    rng = np.random.default_rng(m)
    A = rng.normal(size=(m, m))
    L = cholesky(A @ A.T + m * np.eye(m), lower=True)
    for factor in (L, L + np.triu(rng.normal(size=(m, m)), 1)):
        inv, info = lapack.dpotri(factor, lower=1)
        assert info == 0
        out = chol_inverse(factor)
        np.testing.assert_array_equal(out, np.tril(inv) + np.tril(inv, -1).T)
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_array_equal(out, chol_inverse(L))


def test_solve_mm_matches_dense_solve():
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(5, 2))
    gram = build_gram(np.empty((0, 2)), Z, KernelParams(0.0))
    B = rng.normal(size=(5, 3))
    np.testing.assert_allclose(
        gram.solve_mm(B), np.linalg.solve(gram.K_mm, B), rtol=1e-9, atol=1e-11
    )


@pytest.mark.parametrize("name_idx", [0, 1, 2])
def test_kern_grad_matches_finite_differences(name_idx):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 2))
    Z = rng.normal(size=(3, 2))
    base = np.array([0.3, -0.1, np.log(1e-4)])
    names = ("log_lengthscale", "log_amplitude", "log_jitter")
    h = 1e-6

    def blocks(vec):
        p = KernelParams.from_array(vec)
        return (
            kern_matrix(Z, Z, p, same=True),
            kern_matrix(X, Z, p),
            np.diag(kern_matrix(X, X, p, same=True)),
        )

    grads = kern_grad_dense(X, Z, KernelParams.from_array(base))
    up = base.copy()
    up[name_idx] += h
    dn = base.copy()
    dn[name_idx] -= h
    for analytic, plus, minus in zip(grads[names[name_idx]], blocks(up), blocks(dn)):
        fd = (plus - minus) / (2.0 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)


def test_kern_grad_jitter_touches_only_diagonals():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(5, 2))
    Z = rng.normal(size=(3, 2))
    params = KernelParams(0.0, log_jitter=np.log(2e-5))
    dK_mm, dK_nm, dk_diag = kern_grad_dense(X, Z, params)["log_jitter"]
    np.testing.assert_allclose(dK_mm, 2e-5 * np.eye(3), rtol=1e-12)
    np.testing.assert_array_equal(dK_nm, np.zeros((5, 3)))
    np.testing.assert_allclose(dk_diag, np.full(5, 2e-5), rtol=1e-12)


@pytest.mark.parametrize("escalated", [False, True], ids=["plain", "escalated"])
def test_kern_grad_contracts_the_dense_derivatives(escalated):
    # kern_grad reads S from the bundle instead of rebuilding it; on an
    # escalated bundle K_mm also carries jitter_extra, which it must remove.
    rng = np.random.default_rng(11)
    if escalated:
        Z = np.linspace(0.0, 1.0, 30)[:, None]  # fails to factorize at jitter 1e-16
        params = KernelParams(log_lengthscale=0.0, log_amplitude=0.2, log_jitter=np.log(1e-16))
    else:
        Z = rng.normal(size=(6, 1))
        params = KernelParams(log_lengthscale=0.3, log_amplitude=-0.1, log_jitter=np.log(1e-4))
    X = rng.normal(size=(9, 1))
    gram = build_gram(X, Z, params)
    assert (gram.jitter_extra > 0.0) == escalated
    m = Z.shape[0]
    P_K, P_A, p_diag = rng.normal(size=(m, m)), rng.normal(size=(9, m)), rng.normal(size=9)
    want = [np.sum(P_K * dK_mm) + np.sum(P_A * dK_nm) + p_diag @ dk_diag
            for dK_mm, dK_nm, dk_diag in kern_grad_dense(X, Z, params).values()]
    got = kern_grad(gram, X, Z, params, P_K, P_A, p_diag)
    assert got.shape == (3,)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_gram_cholesky_is_lower_triangular_factor():
    rng = np.random.default_rng(10)
    Z = rng.normal(size=(4, 2))
    gram = build_gram(np.empty((0, 2)), Z, KernelParams(0.0))
    ref = cholesky(gram.K_mm, lower=True)
    np.testing.assert_allclose(gram.chol_Kmm, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("shared, n", [
    pytest.param(False, 7, id="False"),
    pytest.param(True, 7, id="True"),
    pytest.param(True, 2 * _ROW_BLOCK + 3, id="True-blocks"),  # more rows than a prediction block
])
def test_marginals_match_dense_solve(shared, n):
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(5, 2))
    X = rng.normal(size=(n, 2))
    params = KernelParams(log_lengthscale=0.3, log_amplitude=0.2)
    mm = build_gram(rng.normal(size=(3, 2)), Z, params) if shared else None
    gram = build_gram(X, Z, params, mm=mm)
    mu = rng.normal(size=5)
    R = rng.normal(size=(5, 5))
    Sigma = R @ R.T + 0.1 * np.eye(5)

    K = kern_matrix(Z, Z, params, same=True)
    A = kern_matrix(X, Z, params)
    kappa = np.linalg.solve(K, A.T).T
    kSk = np.array([k @ Sigma @ k for k in kappa])
    k_diag = np.diag(kern_matrix(X, X, params, same=True))
    ref_var = k_diag - np.sum(kappa * A, axis=1) + kSk

    mean, var = gram.marginals(mu, Sigma)
    np.testing.assert_allclose(mean, kappa @ mu, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(var, ref_var, rtol=1e-9, atol=1e-12)
