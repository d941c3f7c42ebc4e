"""Tests for dataset validation, variational state, init, and checkpoints."""

import json
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from pggpc.inference import local_update
from pggpc.kernel import KernelParams, build_gram, factorize
from pggpc.model import (
    Dataset,
    VariationalState,
    init_state,
    kmeanspp_init,
    load_checkpoint,
    natural_to_moments,
    save_checkpoint,
)

import pggpc.model as model
from oracles import clone, kmeanspp_seeds, lloyd_by_masks, moments_to_natural, prior_state


def _toy_dataset(n=20, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    return Dataset(X=X, y=y)


class TestDataset:
    def test_basic_shape_properties(self):
        ds = _toy_dataset(15, 3)
        assert ds.n == 15
        assert ds.d == 3
        assert ds.y.dtype == np.float64

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Dataset(X=np.zeros((3, 1)), y=np.array([1.0, 0.0, -1.0]))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset(X=np.array([[1.0], [np.nan]]), y=np.array([1.0, -1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(X=np.zeros((3, 1)), y=np.array([1.0, -1.0]))

    def test_rejects_no_feature_columns(self):
        with pytest.raises(ValueError, match="no feature columns"):
            Dataset(X=np.zeros((4, 0)), y=np.array([1.0, -1.0, 1.0, -1.0]))

    def test_subset_selects_rows(self):
        ds = _toy_dataset(10)
        sub = ds.subset(np.array([2, 5, 7]))
        assert sub.n == 3
        np.testing.assert_array_equal(sub.X, ds.X[[2, 5, 7]])
        np.testing.assert_array_equal(sub.y, ds.y[[2, 5, 7]])


class TestNaturalMomentMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        m = 6
        A = rng.normal(size=(m, m))
        Sigma = A @ A.T + m * np.eye(m)
        mu = rng.normal(size=m)
        eta1, eta2 = moments_to_natural(mu, Sigma)
        mu2, Sigma2, _ = natural_to_moments(eta1, eta2)
        np.testing.assert_allclose(mu2, mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(Sigma2, Sigma, rtol=1e-10, atol=1e-12)

    def test_parameter_identities(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4))
        Sigma = A @ A.T + 4.0 * np.eye(4)
        mu = rng.normal(size=4)
        eta1, eta2 = moments_to_natural(mu, Sigma)
        prec = np.linalg.inv(Sigma)
        np.testing.assert_allclose(eta1, prec @ mu, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(eta2, -0.5 * prec, rtol=1e-9, atol=1e-11)

    def test_covariance_is_the_exactly_symmetric_inverse(self):
        rng = np.random.default_rng(4)
        m = 40
        A = rng.normal(size=(m, m))
        prec = A @ A.T + m * np.eye(m)
        _, Sigma, _ = natural_to_moments(np.zeros(m), -0.5 * prec)
        np.testing.assert_array_equal(Sigma, Sigma.T)
        ref = np.linalg.inv(prec)
        assert np.linalg.norm(Sigma - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rejects_indefinite_precision(self):
        with pytest.raises(np.linalg.LinAlgError):
            natural_to_moments(np.zeros(2), 0.5 * np.eye(2))  # -2 eta2 = -I


class TestVariationalState:
    def test_from_natural_refreshes_moments(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        Sigma = A @ A.T + 3.0 * np.eye(3)
        mu = rng.normal(size=3)
        eta1, eta2 = moments_to_natural(mu, Sigma)
        st = VariationalState.from_natural(eta1, eta2, np.zeros((3, 1)), KernelParams(0.0))
        np.testing.assert_allclose(st.mu, mu, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(st.Sigma, Sigma, rtol=1e-9, atol=1e-11)
        assert st.m == 3

    def test_holds_q_u_and_the_model_only(self):
        # The tilts are per-batch values that the steps compute, not state.
        assert [f.name for f in fields(VariationalState)] == [
            "eta1", "eta2", "mu", "Sigma", "logdet_Sigma", "mm"]

    def test_is_frozen(self):
        st = prior_state(_toy_dataset(), 4, KernelParams(0.0), np.random.default_rng(0))
        with pytest.raises(FrozenInstanceError):
            st.params = KernelParams(log_lengthscale=0.5)
        with pytest.raises(FrozenInstanceError):
            st.Sigma = 2.0 * st.Sigma

    def test_with_natural_returns_consistent_new_state(self):
        ds = _toy_dataset()
        st = prior_state(ds, 4, KernelParams(0.0), np.random.default_rng(0))
        new = st.with_natural(st.eta1 + 0.1, st.eta2 * 1.5)
        assert new is not st
        mu, Sigma, _ = natural_to_moments(new.eta1, new.eta2)
        np.testing.assert_allclose(new.mu, mu, atol=1e-12)
        np.testing.assert_allclose(new.Sigma, Sigma, atol=1e-12)

    # |logdet_Sigma - slogdet(Sigma)| over 20 seeds of this q(u) at m=40:
    # 5.7e-14 at cond 1e2 and 1.5e-9 at cond 1e8 (the inverse Sigma itself
    # carries round-off of order cond * eps).
    @pytest.mark.parametrize("cond, tol", [(1e2, 1e-12), (1e8, 1e-8)])
    def test_logdet_sigma_is_that_of_sigma(self, cond, tol, tmp_path):
        rng = np.random.default_rng(7)
        m = 40
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        prec = (Q * np.logspace(0, np.log10(cond), m)) @ Q.T
        prec = 0.5 * (prec + prec.T)  # exactly symmetric, as every eta2 is kept
        st = VariationalState.from_natural(rng.normal(size=m), -0.5 * prec,
                                           rng.normal(size=(m, 2)), KernelParams(0.0))
        stepped = st.with_natural(st.eta1, 0.9 * st.eta2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, st, seed=0)
        loaded, _, _ = load_checkpoint(path)
        for state in (st, stepped, loaded):
            sign, ref = np.linalg.slogdet(state.Sigma)
            assert sign == 1.0
            assert abs(state.logdet_Sigma - ref) <= tol

    def test_prior_logdet_sigma_is_that_of_kmm(self):
        st = prior_state(_toy_dataset(), 6, KernelParams(0.0), np.random.default_rng(0))
        assert st.logdet_Sigma == st.mm.logdet_Kmm
        assert st.logdet_Sigma == pytest.approx(np.linalg.slogdet(st.Sigma)[1], abs=1e-12)

    def test_clone_is_independent(self):
        ds = _toy_dataset()
        st = prior_state(ds, 4, KernelParams(0.0), np.random.default_rng(0))
        cp = clone(st)
        cp.eta1[0] += 1.0
        cp.eta2[0, 0] += 1.0
        assert st.eta1[0] != cp.eta1[0]
        assert st.eta2[0, 0] != cp.eta2[0, 0]


class TestKmeansppInit:
    def test_m_equals_n_recovers_points(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 2))
        Z = kmeanspp_init(X, 8, np.random.default_rng(5))
        # With one center per point, Lloyd assigns each point to itself.
        got = {tuple(np.round(row, 12)) for row in Z}
        want = {tuple(np.round(row, 12)) for row in X}
        assert got == want

    def test_m_one_gives_centroid(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        Z = kmeanspp_init(X, 1, np.random.default_rng(7))
        np.testing.assert_allclose(Z[0], X.mean(axis=0), rtol=1e-10, atol=1e-12)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(8)
        blob1 = rng.normal(loc=(-10.0, 0.0), scale=0.1, size=(25, 2))
        blob2 = rng.normal(loc=(10.0, 0.0), scale=0.1, size=(25, 2))
        X = np.vstack([blob1, blob2])
        Z = kmeanspp_init(X, 2, np.random.default_rng(9))
        Z = Z[np.argsort(Z[:, 0])]
        np.testing.assert_allclose(Z[0], blob1.mean(axis=0), atol=0.05)
        np.testing.assert_allclose(Z[1], blob2.mean(axis=0), atol=0.05)

    def test_duplicate_points_do_not_crash(self):
        X = np.zeros((10, 2))
        Z = kmeanspp_init(X, 3, np.random.default_rng(10))
        assert Z.shape == (3, 2)
        np.testing.assert_array_equal(Z, np.zeros((3, 2)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 2))
        Z1 = kmeanspp_init(X, 5, np.random.default_rng(12))
        Z2 = kmeanspp_init(X, 5, np.random.default_rng(12))
        np.testing.assert_array_equal(Z1, Z2)

    def test_lloyd_steps_hold_one_n_by_m_buffer(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(4000, 2))
        m = 100
        tracemalloc.start()
        try:
            kmeanspp_init(X, m, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * X.shape[0] * m * X.itemsize

    @pytest.mark.parametrize("n,d,m", [(2000, 8, 100), (500, 3, 50), (30, 2, 6)])
    def test_lloyd_steps_equal_the_per_cluster_loop(self, monkeypatch, n, d, m):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, d))
        if n == 30:  # three distinct points: the surplus seeds duplicate, so clusters go empty
            X = np.repeat(X[:3], 10, axis=0)
        Z = kmeanspp_init(X, m, np.random.default_rng(1))
        iters = model._LLOYD_ITERS
        monkeypatch.setattr(model, "_LLOYD_ITERS", 0)
        seeds = kmeanspp_init(X, m, np.random.default_rng(1))
        if n == 30:
            assert len(np.unique(seeds, axis=0)) < m
        np.testing.assert_array_equal(Z, lloyd_by_masks(X, seeds, iters))

    @pytest.mark.parametrize("n,d,m", [(30, 2, 6), (500, 3, 50), (2000, 8, 100), (4000, 8, 300),
                                       (2400, 8, 100), (7000, 5, 300)])
    def test_seeds_equal_the_draws_by_rng_choice(self, monkeypatch, n, d, m):
        # Each seed is choice's own draw, one double from the generator; the
        # last two cases read max(2000, 20 m) < n sampled rows.
        X = np.random.default_rng(n).normal(size=(n, d))
        if n == 30:  # three distinct points: from the fourth seed on, total == 0
            X = np.repeat(X[:3], 10, axis=0)
        monkeypatch.setattr(model, "_LLOYD_ITERS", 0)
        np.testing.assert_array_equal(kmeanspp_init(X, m, np.random.default_rng(1)),
                                      kmeanspp_seeds(X, m, np.random.default_rng(1)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_past_the_float64_square_range_are_clamped(self):
        # Unstandardized rows near 1e308 overflowed the squared distances.
        # Read as at +/- 1e150, as the kernel reads them, they seed and move
        # the centers like any other far-apart points.
        X = np.repeat([[-1.5e308, 0.0], [1.5e308, 1.0], [0.0, 1e200]], 4, axis=0)
        Z = kmeanspp_init(X, 3, np.random.default_rng(2))
        want = np.array([[-1e150, 0.0], [0.0, 1e150], [1e150, 1.0]])
        np.testing.assert_array_equal(Z[np.argsort(Z[:, 0])], want)

    @pytest.mark.parametrize("n,m,rows", [(2001, 100, 2000), (3001, 150, 3000)])
    def test_above_the_floor_runs_on_the_rows_drawn_first(self, n, m, rows):
        # rows = max(2000, 20 m): the unchanged routine on the sampled rows,
        # continuing the same generator after the draw.
        X = np.random.default_rng(n).normal(size=(n, 4))
        rng = np.random.default_rng(1)
        want = kmeanspp_init(X[rng.choice(n, rows, replace=False)], m, rng)
        np.testing.assert_array_equal(kmeanspp_init(X, m, np.random.default_rng(1)), want)

    def test_above_the_floor_deterministic_given_seed(self):
        X = np.random.default_rng(13).normal(size=(5000, 3))
        Z1 = kmeanspp_init(X, 40, np.random.default_rng(14))
        Z2 = kmeanspp_init(X, 40, np.random.default_rng(14))
        np.testing.assert_array_equal(Z1, Z2)
        assert not np.array_equal(Z1, kmeanspp_init(X, 40, np.random.default_rng(15)))

    def test_rejects_bad_m(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError):
            kmeanspp_init(X, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeanspp_init(X, 5, np.random.default_rng(0))


class TestInitState:
    def test_prior_initialization(self):
        ds = _toy_dataset(25, 2)
        params = KernelParams(0.0)
        st = prior_state(ds, 5, params, np.random.default_rng(13))
        fresh = factorize(st.Z, params)
        np.testing.assert_array_equal(st.eta1, np.zeros(5))
        np.testing.assert_allclose(st.eta2, -0.5 * fresh.Kmm_inv, atol=1e-12)
        np.testing.assert_array_equal(st.mu, np.zeros(5))
        np.testing.assert_allclose(st.Sigma, fresh.K_mm, rtol=1e-12)

    def test_initial_tilts_equal_prior_marginal_std(self):
        # With mu = 0 and Sigma = K_mm the optimal tilt reduces to
        # sqrt(k(x, x)) for every point, wherever the inducing inputs sit.
        ds = _toy_dataset(30, 2)
        params = KernelParams(0.0, log_amplitude=np.log(1.7))
        st = prior_state(ds, 6, params, np.random.default_rng(14))
        expect = np.sqrt(1.7**2 + params.jitter)
        c = local_update(*build_gram(ds.X, st.mm).marginals(st.mu, st.Sigma))
        np.testing.assert_allclose(c, np.full(30, expect), rtol=1e-9)

    def test_initial_tilts_match_kappa_form_local_update(self):
        # The same at rows away from the inducing inputs and another kernel:
        # the prior q(u) gives q(f_i) = N(0, k_ii), so c_i = sqrt(a^2 + jitter).
        ds = _toy_dataset(40, 3)
        params = KernelParams(log_lengthscale=0.4, log_amplitude=0.3)
        st = prior_state(ds, 7, params, np.random.default_rng(18))
        far = ds.X + 5.0
        gram = build_gram(np.vstack([ds.X, far]), st.mm)
        c = local_update(*gram.marginals(st.mu, st.Sigma))
        np.testing.assert_allclose(c, np.full(80, np.sqrt(np.exp(0.6) + params.jitter)),
                                   rtol=1e-12)

    def test_explicit_inducing_inputs_are_used(self):
        ds = _toy_dataset(12, 2)
        Z = ds.X[:4] + 0.5
        st = init_state(Z, KernelParams(0.0))
        assert st.m == 4
        np.testing.assert_allclose(st.Sigma, factorize(Z, KernelParams(0.0)).K_mm, rtol=0)
        np.testing.assert_array_equal(st.Z, Z)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = _toy_dataset(18, 3)
        st = prior_state(ds, 4, KernelParams(log_lengthscale=0.27), np.random.default_rng(15))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, st, seed=77)
        loaded, seed, pre = load_checkpoint(path)
        assert seed == 77
        assert pre is None
        assert loaded.params == st.params
        np.testing.assert_array_equal(loaded.Z, st.Z)
        np.testing.assert_array_equal(loaded.eta1, st.eta1)
        np.testing.assert_array_equal(loaded.eta2, st.eta2)
        np.testing.assert_allclose(loaded.mu, st.mu, atol=1e-12)
        np.testing.assert_allclose(loaded.Sigma, st.Sigma, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(loaded.mm.chol_Kmm, st.mm.chol_Kmm)  # factorized afresh

    def test_save_load_save_reproduces_bytes(self, tmp_path):
        ds = _toy_dataset(10, 2)
        st = prior_state(ds, 3, KernelParams(0.0), np.random.default_rng(16))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, st, seed=5)
        loaded, seed, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded, seed=seed)
        assert p1.read_bytes() == p2.read_bytes()

    def test_preprocess_block_round_trips(self, tmp_path):
        ds = _toy_dataset(10, 2)
        st = prior_state(ds, 3, KernelParams(0.0), np.random.default_rng(17))
        pre = {"means": np.array([0.5, -1.5]), "stds": np.array([2.0, 0.25])}
        path = tmp_path / "c.json"
        save_checkpoint(path, st, seed=1, preprocess=pre)
        _, _, loaded_pre = load_checkpoint(path)
        np.testing.assert_array_equal(loaded_pre["means"], pre["means"])
        np.testing.assert_array_equal(loaded_pre["stds"], pre["stds"])

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other.v9", "seed": 0}')
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("arrays.eta1", np.nan),
        ("arrays.eta2", np.inf),
        ("arrays.Z", -np.inf),
        ("preprocess.means", np.nan),
    ])
    def test_rejects_a_non_finite_array_naming_the_field(self, field, value, tmp_path):
        ds = _toy_dataset(10, 2)
        st = prior_state(ds, 3, KernelParams(0.0), np.random.default_rng(18))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, st, seed=1, preprocess={"means": np.zeros(2), "stds": np.ones(2)})
        doc = json.loads(path.read_text())
        block, name = field.split(".")
        arr = {"eta1": st.eta1, "eta2": st.eta2, "Z": st.Z, "means": np.zeros(2)}[name].copy()
        arr.flat[-1] = value
        doc[block][name] = model._encode_array(arr)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: checkpoint field {field!r} holds NaN or Inf"

    def test_rejects_finite_natural_parameters_with_non_finite_moments(self, tmp_path):
        # -2 eta2 = 2e-310 I factorizes, but its inverse overflows to inf.
        ds = _toy_dataset(10, 2)
        st = prior_state(ds, 3, KernelParams(0.0), np.random.default_rng(18))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, st, seed=1)
        doc = json.loads(path.read_text())
        doc["arrays"]["eta2"] = model._encode_array(-1e-310 * np.eye(3))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (f"{path}: checkpoint field 'arrays' eta1 and eta2 give a "
                                  "non-finite mean or covariance")
