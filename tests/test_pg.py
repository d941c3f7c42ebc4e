"""Tests for the Polya-Gamma primitives: moments, series switches, samplers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit as sigmoid

from pggpc.pg import (
    _series_accept,
    log_cosh,
    pg_kl_term,
    pg_sample,
    theta,
)

from oracles import pg_mean, pg_sample_gamma_approx

# Scalar reference values computed with 40-digit arithmetic and frozen here.
SIGMOID_2 = 0.88079707797788244406
THETA_1 = 0.23105857863000487925  # tanh(1/2) / 2
PG_MEAN_1_2 = 0.19039853898894122203  # tanh(1) / 4
LOGCOSH_HALF = 0.12011450695827752463
KL_TERM_3 = 0.17657898078014692066
MGF_C0 = {0.1: 0.97551045348001066561, 1.0: 0.79327818174638691338, 4.0: 0.45909813108542549924}


def test_sigmoid_reference_value():
    assert sigmoid(2.0) == pytest.approx(SIGMOID_2, rel=1e-14)
    assert sigmoid(0.0) == 0.5


def test_sigmoid_extreme_arguments_do_not_overflow():
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(800.0) == 1.0
    assert np.all(np.isfinite(sigmoid(np.array([-1e4, -37.0, 37.0, 1e4]))))


def test_log_cosh_matches_naive_form_in_safe_range():
    x = np.linspace(-20.0, 20.0, 401)
    np.testing.assert_allclose(log_cosh(x), np.log(np.cosh(x)), rtol=1e-13, atol=1e-15)
    assert log_cosh(0.5) == pytest.approx(LOGCOSH_HALF, rel=1e-14)


def test_log_cosh_large_arguments():
    # cosh overflows near 710 but log cosh(x) -> |x| - log 2 stays exact.
    for x in [800.0, -800.0, 1e6]:
        assert log_cosh(x) == pytest.approx(abs(x) - np.log(2.0), rel=1e-14)


def test_theta_reference_values():
    assert theta(1.0) == pytest.approx(THETA_1, rel=1e-14)
    assert theta(0.0) == 0.25
    # tanh(50) is 1.0 to machine precision, so theta(100) = 1/200 exactly.
    assert theta(100.0) == pytest.approx(0.005, rel=1e-15)


def test_theta_even_and_decreasing():
    c = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0, 5.0, 50.0])
    np.testing.assert_allclose(theta(c), theta(-c), rtol=0, atol=0)
    vals = theta(c)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0) and np.all(vals <= 0.25)


def test_theta_series_joins_direct_branch():
    # The Taylor branch at |c| < 1e-4 must agree with the direct formula
    # evaluated just above the switch to far better than the switch error.
    for c in [9e-5, 9.999e-5, 1.0001e-4, 2e-4]:
        direct = np.tanh(0.5 * c) / (2.0 * c)
        assert theta(c) == pytest.approx(direct, rel=1e-12)


def test_pg_mean_scales_linearly_in_b():
    assert pg_mean(1.0, 2.0) == pytest.approx(PG_MEAN_1_2, rel=1e-14)
    assert pg_mean(3.0, 2.0) == pytest.approx(3.0 * PG_MEAN_1_2, rel=1e-14)
    assert pg_mean(1.0, 0.0) == 0.25
    with pytest.raises(ValueError):
        pg_mean(0.0, 1.0)
    with pytest.raises(ValueError):
        pg_mean(-2.0, 1.0)


def test_pg_kl_term_reference_and_shape():
    assert pg_kl_term(3.0) == pytest.approx(KL_TERM_3, rel=1e-13)
    assert pg_kl_term(0.0) == 0.0
    c = np.array([-2.0, 2.0])
    vals = pg_kl_term(c)
    assert vals[0] == vals[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_tilts_overflow_no_series_term():
    # Both series were evaluated on every tilt: c^4 overflows past c ~ 1e77
    # in theta and c^6 past 1e51 in pg_kl_term, as tilts of a kernel with
    # amplitude 1e60 reach (a tilt is at most sqrt(1.8e308) ~ 1.3e154).
    c = np.array([1e-5, 3.0, 1e60, 1e150])
    np.testing.assert_array_equal(theta(c)[1:], np.tanh(0.5 * c[1:]) / (2.0 * c[1:]))
    assert theta(c)[0] == 0.25 - 1e-10 / 48.0 + 1e-20 / 480.0
    np.testing.assert_allclose(pg_kl_term(c)[2:], [2.5e59, 2.5e149], rtol=1e-14)


def test_pg_kl_term_series_joins_direct_branch():
    # The naive form cancels catastrophically below the switch (both terms
    # ~c^2/8 agreeing to ~6 digits), so compare with an absolute floor at the
    # float64 noise level of the naive evaluation rather than relatively.
    for c in [5e-3, 9.99e-3, 1.001e-2, 2e-2]:
        direct = np.log(np.cosh(0.5 * c)) - 0.25 * c * np.tanh(0.5 * c)
        assert pg_kl_term(c) == pytest.approx(direct, rel=1e-6, abs=2e-15)


@given(st.floats(min_value=0.0, max_value=80.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_pg_kl_term_nonnegative(c):
    assert pg_kl_term(c) >= 0.0


@given(
    st.floats(min_value=1e-8, max_value=50.0),
    st.floats(min_value=1.0001, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_pg_kl_term_increasing_in_magnitude(c, factor):
    assert pg_kl_term(c * factor) > pg_kl_term(c) - 1e-18


def _mc_mean_check(c, n, seed, z_max=3.5):
    rng = np.random.default_rng(seed)
    draws = pg_sample(np.full(n, c), rng)
    assert np.all(draws > 0)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - pg_mean(1.0, c)) < z_max * se


@pytest.mark.parametrize("c", [0.0, 0.5, 2.0, 10.0])
def test_sampler_mean_matches_analytic(c):
    _mc_mean_check(c, 200_000, seed=20240 + int(10 * c))


def test_sampler_variance_at_zero_tilt():
    # Var PG(1, 0) = 1/24, from the second cumulant of -log cosh(sqrt(t/2)).
    rng = np.random.default_rng(7)
    draws = pg_sample(np.zeros(400_000), rng)
    v = draws.var(ddof=1)
    centered = (draws - draws.mean()) ** 2
    se_v = centered.std(ddof=1) / np.sqrt(draws.size)
    assert abs(v - 1.0 / 24.0) < 3.5 * se_v


@pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
def test_sampler_laplace_transform_at_zero_tilt(t):
    rng = np.random.default_rng(31)
    draws = pg_sample(np.zeros(200_000), rng)
    vals = np.exp(-t * draws)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - MGF_C0[t]) < 3.5 * se


def test_sampler_laplace_transform_tilted():
    # E[exp(-omega t)] = cosh(c/2) / cosh(sqrt(c^2/4 + t/2)) at c = 2, t = 1.
    target = np.cosh(1.0) / np.cosh(np.sqrt(1.5))
    rng = np.random.default_rng(5150)
    draws = pg_sample(np.full(200_000, 2.0), rng)
    vals = np.exp(-draws)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - target) < 3.5 * se


def test_sampler_sign_invariance_is_exact():
    draws_pos = pg_sample(np.full(64, 3.0), np.random.default_rng(99))
    draws_neg = pg_sample(np.full(64, -3.0), np.random.default_rng(99))
    np.testing.assert_array_equal(draws_pos, draws_neg)


def test_sampler_seed_reproducibility_and_shapes():
    a = pg_sample(np.full((3, 4), 1.5), np.random.default_rng(123))
    b = pg_sample(np.full((3, 4), 1.5), np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (3, 4)
    scalar = pg_sample(1.5, np.random.default_rng(1))
    assert np.ndim(scalar) == 0


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_sampler_on_empty_input_draws_nothing(shape):
    rng = np.random.default_rng(5)
    draws = pg_sample(np.empty(shape), rng)
    assert draws.shape == shape
    # No draw consumed the generator.
    assert rng.random() == np.random.default_rng(5).random()


def test_sampler_heterogeneous_tilts():
    c = np.array([0.0, 0.1, 1.0, 5.0, 25.0])
    rng = np.random.default_rng(8)
    draws = pg_sample(np.repeat(c, 60_000).reshape(5, 60_000), rng)
    means = draws.mean(axis=1)
    ses = draws.std(axis=1, ddof=1) / np.sqrt(60_000)
    np.testing.assert_array_less(np.abs(means - pg_mean(1.0, c)), 4.0 * ses)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampler_rejects_non_finite_tilt(bad):
    with pytest.raises(ValueError, match="finite"):
        pg_sample(np.array([bad, 1.0]), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [1.0001e150, -1e200, 1.7e308])
def test_sampler_rejects_a_tilt_it_cannot_draw(bad):
    # (c/2)^2 overflowed in the proposal's rate, and the series then never
    # decided, so gibbs-check with a huge amplitude ended in a RuntimeError.
    with pytest.raises(ValueError, match=re.escape(f"at most 1e+150 in magnitude, got {bad!r}")):
        pg_sample(np.array([1.0, bad]), np.random.default_rng(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sampler_draws_at_the_largest_tilt():
    # PG(1, c) concentrates at its mean tanh(c/2) / (2c) = 1 / (2c) as c grows.
    c = np.array([1e150, -1e150, 1e100])
    draws = pg_sample(c, np.random.default_rng(1))
    np.testing.assert_allclose(draws, 0.5 / np.abs(c), rtol=1e-6)


def test_undecided_series_raises_instead_of_rejecting():
    # A NaN candidate never compares true against a partial sum, so it stays
    # undecided through every term of the series.
    with pytest.raises(RuntimeError, match="undecided after 1000 terms"):
        _series_accept(np.array([0.3, np.nan]), np.random.default_rng(0))


def test_gamma_series_cross_checks_exact_sampler():
    # The truncated-series sampler has a small negative mean bias
    # (about 1/(2 pi^2 n_terms) ~ 2.5e-4 at 200 terms); the two samplers
    # must agree within MC error plus that bias allowance.
    c = 1.5
    n = 150_000
    exact = pg_sample(np.full(n, c), np.random.default_rng(41))
    approx = pg_sample_gamma_approx(np.full(n, c), np.random.default_rng(42))
    se = np.hypot(exact.std(ddof=1), approx.std(ddof=1)) / np.sqrt(n)
    bias = 1.0 / (2.0 * np.pi**2 * 200)
    assert abs(exact.mean() - approx.mean()) < 3.5 * se + bias
    # and the truncation can only lose mass, so the approximate mean sits below.
    assert approx.mean() < pg_mean(1.0, c) + 3.5 * se


def test_mc_kl_matches_closed_form():
    # KL(PG(1,c) || PG(1,0)) has log-density ratio log cosh(c/2) - c^2 x / 2,
    # so its MC estimate under exact draws must bracket the closed form.
    c = 2.5
    rng = np.random.default_rng(77)
    draws = pg_sample(np.full(200_000, c), rng)
    vals = log_cosh(0.5 * c) - 0.5 * c * c * draws
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - pg_kl_term(c)) < 3.5 * se
