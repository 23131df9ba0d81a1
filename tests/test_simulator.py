"""Closed-form covariance, innovations factorization, path generation, CSV."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from lswhittle import (BasisSpec, ConfigError, CurveSpec,
                       InfeasibleParameterError, ModelSpec, simulator)

from oracles import arfima01_acv, fn_acv, naive_innovations

POLY0 = BasisSpec("polynomial", 0)
POLY1 = BasisSpec("polynomial", 1)


def fn_model():
    return ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1))


def ma_model():
    return ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1),
                     ma=(CurveSpec(POLY0, sign=-1),))


class TestCovariance:
    def test_fn_variance_closed_form(self):
        # Var Y_t = sigma(t/T)^2 Gamma(1-2d)/Gamma(1-d)^2 with
        # d = d(t/T); checked against an independent log-gamma evaluation.
        model = fn_model()
        theta = [0.15, 0.20, 0.5, 0.3]
        T = 64
        for t in (1, 13, 64):
            u = t / T
            d, s = 0.15 + 0.20 * u, 0.5 + 0.3 * u
            want = s * s * fn_acv(d, 0)
            got = simulator.covariance(model, theta, t, t, T)
            assert got == pytest.approx(want, rel=1e-13)

    def test_ma_variance_closed_form(self):
        # the lag-0 bracket reduces to 1 + vt^2 - 2 vt d/(1-d).
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        T = 64
        for t in (1, 32, 64):
            u = t / T
            d, s = 0.15 + 0.20 * u, 0.5 + 0.3 * u
            want = s * s * fn_acv(d, 0) * (1.25 - d / (1.0 - d))
            got = simulator.covariance(model, theta, t, t, T)
            assert got == pytest.approx(want, rel=1e-13)

    def test_constant_params_match_stationary_oracle(self):
        # With constant d, sigma, theta the process is stationary ARFIMA
        # and the kernel must equal the textbook autocovariance at any lag.
        model = ma_model()
        theta = [0.25, 0.0, 0.8, 0.0, 0.4]
        T = 80
        for k in range(0, 51):
            want = 0.64 * arfima01_acv(0.25, 0.4, k)
            got = simulator.covariance(model, theta, k + 10, 10, T)
            assert got == pytest.approx(want, rel=1e-12)

    def test_constant_fn_matches_oracle(self):
        model = fn_model()
        theta = [0.45, 0.0, 1.0, 0.0]
        for k in range(0, 51):
            got = simulator.covariance(model, theta, k + 1, 1, 120)
            assert got == pytest.approx(fn_acv(0.45, k), rel=1e-12)

    def test_ma_sign_convention(self):
        # A (1 - 0.5 B) factor makes the lag-1 autocorrelation of a
        # nearly memoryless process approach -0.5/1.25 = -0.4.
        model = ma_model()
        theta = [2e-3, 0.0, 1.0, 0.0, 0.5]
        var = simulator.covariance(model, theta, 5, 5, 10)
        cov1 = simulator.covariance(model, theta, 6, 5, 10)
        assert cov1 / var == pytest.approx(-0.4, abs=1e-2)

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            simulator.covariance(fn_model(), [0.2, 0.0, 1.0, 0.0], 3, 5, 10)
        with pytest.raises(ValueError):
            simulator.covariance(fn_model(), [0.2, 0.0, 1.0, 0.0], 11, 5, 10)

    def test_rejects_infeasible_parameters(self):
        with pytest.raises(InfeasibleParameterError):
            simulator.covariance(fn_model(), [0.3, 0.3, 1.0, 0.0], 5, 5, 10)

    def test_kernel_matrix_matches_pointwise_calls(self):
        model = ma_model()
        theta = [0.10, 0.25, 0.6, 0.2, 0.3]
        T = 12
        K = simulator.make_kernel(model, theta, T).matrix()
        for s in range(1, T + 1):
            for t in range(1, s + 1):
                want = simulator.covariance(model, theta, s, t, T)
                assert K[s - 1, t - 1] == pytest.approx(want, rel=1e-14)
        np.testing.assert_allclose(K, K.T, rtol=0, atol=0)

    @pytest.mark.parametrize("T", [simulator.ROW_BLOCK - 1,
                                   simulator.ROW_BLOCK,
                                   simulator.ROW_BLOCK + 1, 300])
    def test_kernel_matches_one_shot_construction(self, T):
        # The row-block fill must give the bits of the closed form
        # evaluated once over the whole lower triangle, at block edges too.
        model = ma_model()
        theta = [0.05, 0.40, 0.5, 0.6, 0.5]
        K = simulator.make_kernel(model, theta, T).matrix()
        u = np.arange(1, T + 1) / T
        d, sig = 0.05 + 0.40 * u, 0.5 + 0.6 * u
        rows, cols = np.tril_indices(T)
        ds, dt = d[rows], d[cols]
        k = (rows - cols).astype(float)
        vt = 0.5
        log_fn = (gammaln(1.0 - ds - dt) + gammaln(k + ds)
                  - gammaln(1.0 - ds) - gammaln(ds) - gammaln(k + 1.0 - dt))
        bracket = (1.0 + vt * vt
                   - vt * (k - dt) / (k - 1.0 + ds)
                   - vt * (k + ds) / (k + 1.0 - dt))
        vals = np.exp(log_fn) * bracket
        vals *= sig[rows] * sig[cols]
        want = np.zeros((T, T))
        want[rows, cols] = vals
        want[cols, rows] = vals
        np.testing.assert_array_equal(K, want)
        np.testing.assert_array_equal(K, K.T)
        state = simulator.innovations_decompose(
            simulator.make_kernel(model, theta, T))
        L, v = state.coeffs, state.variances
        np.testing.assert_allclose((L * v) @ L.T, K, rtol=0, atol=1e-12)

    def test_kernel_positive_definite(self):
        K = simulator.make_kernel(ma_model(), [0.15, 0.20, 0.5, 0.3, 0.5],
                                  64).matrix()
        assert np.linalg.eigvalsh(K).min() > 0.0


class TestInnovations:
    def test_matches_textbook_recursion(self):
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        kernel = simulator.make_kernel(model, theta, 40)
        state = simulator.innovations_decompose(kernel)
        coef, v = naive_innovations(kernel.matrix())
        np.testing.assert_allclose(state.coeffs, coef, rtol=0, atol=1e-10)
        np.testing.assert_allclose(state.variances, v, rtol=1e-10)

    def test_reconstructs_kernel(self):
        kernel = simulator.make_kernel(fn_model(), [0.3, 0.1, 1.0, -0.2], 50)
        state = simulator.innovations_decompose(kernel)
        L, v = state.coeffs, state.variances
        np.testing.assert_allclose(np.diag(L), 1.0, rtol=0, atol=0)
        assert np.all(np.triu(L, 1) == 0.0)
        np.testing.assert_allclose(L @ np.diag(v) @ L.T, kernel.matrix(),
                                   rtol=0, atol=1e-12)

    def test_prediction_variances_decrease_from_marginal(self):
        # Conditioning can only reduce Gaussian prediction variance, and
        # the first variance is the marginal one.
        kernel = simulator.make_kernel(fn_model(), [0.4, 0.0, 1.0, 0.0], 30)
        state = simulator.innovations_decompose(kernel)
        K = kernel.matrix()
        assert state.variances[0] == pytest.approx(K[0, 0], rel=1e-14)
        assert np.all(state.variances[1:] <= np.diag(K)[1:] + 1e-12)

    def test_not_positive_definite_rejected(self):
        class FakeKernel:
            T = 3

            def matrix(self):
                return np.array([[1.0, 2.0, 0.0],
                                 [2.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])

        from lswhittle import NotPositiveDefiniteError
        with pytest.raises(NotPositiveDefiniteError):
            simulator.innovations_decompose(FakeKernel())


class TestPaths:
    def test_deterministic_per_seed_and_replication(self):
        model = fn_model()
        theta = [0.2, 0.1, 0.7, 0.1]
        cfg = simulator.SimConfig(T=32, seed=123, replication=5)
        y1 = simulator.simulate_path(model, theta, cfg)
        y2 = simulator.simulate_path(model, theta, cfg)
        np.testing.assert_array_equal(y1, y2)
        other = simulator.SimConfig(T=32, seed=123, replication=6)
        assert not np.array_equal(y1, simulator.simulate_path(model, theta,
                                                              other))

    def test_replication_order_irrelevant(self):
        kernel = simulator.make_kernel(fn_model(), [0.2, 0.1, 0.7, 0.1], 24)
        state = simulator.innovations_decompose(kernel)
        fwd = simulator.paths_from_state(state, seed=9, replications=[1, 3])
        rev = simulator.paths_from_state(state, seed=9, replications=[3, 1])
        np.testing.assert_array_equal(fwd[0], rev[1])
        np.testing.assert_array_equal(fwd[1], rev[0])

    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(2, 300), size=st.integers(1, 20),
           seed=st.integers(0, 2 ** 64 - 1), data=st.data())
    def test_rows_independent_of_batch(self, T, size, seed, data):
        # Each row is the single-replication call, bit for bit, whatever
        # the batch size and order.
        state = simulator.innovations_decompose(simulator.make_kernel(
            ma_model(), [0.05, 0.40, 0.5, 0.6, 0.5], T))
        order = data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                                   min_size=size, max_size=size, unique=True))
        batch = simulator.paths_from_state(state, seed, order)
        for row, rep in zip(batch, order):
            alone = simulator.paths_from_state(state, seed, [rep])[0]
            np.testing.assert_array_equal(row, alone)

    def test_rows_independent_of_batch_past_path_block(self):
        # Batches longer than PATH_BLOCK take several products.
        state = simulator.innovations_decompose(simulator.make_kernel(
            ma_model(), [0.05, 0.40, 0.5, 0.6, 0.5], 129))
        reps = np.random.default_rng(4).permutation(
            2 * simulator.PATH_BLOCK + 3)
        batch = simulator.paths_from_state(state, 8, reps)
        for row, rep in zip(batch, reps):
            np.testing.assert_array_equal(
                row, simulator.paths_from_state(state, 8, [rep])[0])

    def test_replication_index_spans_64_bits(self):
        state = simulator.innovations_decompose(
            simulator.make_kernel(fn_model(), [0.2, 0.1, 0.7, 0.1], 8))
        assert simulator.paths_from_state(state, 1, [2 ** 63, 2 ** 64 - 1]
                                          ).shape == (2, 8)
        with pytest.raises(ValueError):
            simulator.paths_from_state(state, 1, [2 ** 64])

    def test_sample_variance_matches_kernel(self):
        # Monte Carlo check of the exactness claim at a tiny scale: the
        # sample variance at each time must sit within 4 standard errors
        # of the kernel diagonal (SE of a chi-square mean: var*sqrt(2/R)).
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        kernel = simulator.make_kernel(model, theta, 16)
        state = simulator.innovations_decompose(kernel)
        paths = simulator.paths_from_state(state, seed=77,
                                           replications=range(4000))
        diag = np.diag(kernel.matrix())
        sample = np.mean(paths ** 2, axis=0)
        se = diag * math.sqrt(2.0 / 4000.0)
        assert np.all(np.abs(sample - diag) < 4.0 * se)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            simulator.SimConfig(T=1, seed=0)
        with pytest.raises(ValueError):
            simulator.make_kernel(fn_model(), [0.2, 0.0, 1.0, 0.0], 1)


class TestSeriesCsv:
    def test_round_trip_is_exact(self, tmp_path):
        y = simulator.simulate_path(
            fn_model(), [0.2, 0.1, 0.7, 0.1],
            simulator.SimConfig(T=25, seed=4, replication=0))
        path = tmp_path / "series.csv"
        simulator.write_series_csv(y, path)
        back = simulator.read_series_csv(path)
        np.testing.assert_array_equal(back, y)  # 17 digits round-trip floats
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 26
        assert lines[1].startswith("1,")

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n1,0.5\n2,oops\n")
        with pytest.raises(ConfigError) as err:
            simulator.read_series_csv(path)
        assert "row 3" in str(err.value)

    @pytest.mark.parametrize("rows", [
        "1,0.5\n3,0.1\n", "1,0.5\n1,0.1\n", "1,0.5\n2.5,0.1\n",
        "1,0.5\nx,0.1\n",
    ], ids=["gap", "repeat", "non-integer", "non-numeric"])
    def test_bad_t_column_reports_row(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n" + rows)
        with pytest.raises(ConfigError) as err:
            simulator.read_series_csv(path)
        assert "row 3" in str(err.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,y\n1,0.5\n")
        with pytest.raises(ConfigError):
            simulator.read_series_csv(path)
