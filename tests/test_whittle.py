"""Blockwise Whittle objective and Nelder-Mead estimation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from lswhittle import (BasisSpec, CurveSpec, ModelSpec, simulator, spectral,
                       spectral_density, whittle)

from oracles import naive_whittle

POLY0 = BasisSpec("polynomial", 0)
POLY1 = BasisSpec("polynomial", 1)


def fn_model(d_degree=1, s_degree=1):
    return ModelSpec(d=CurveSpec(BasisSpec("polynomial", d_degree)),
                     sigma=CurveSpec(BasisSpec("polynomial", s_degree)))


def ma_model():
    return ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1),
                     ma=(CurveSpec(POLY0, sign=-1),))


def sim(model, theta, t, seed=1, rep=0):
    return simulator.simulate_path(
        model, theta, simulator.SimConfig(T=t, seed=seed, replication=rep))


def make_objective(model, data, plan, taper_kind="cosine"):
    taper = spectral.taper_weights(taper_kind, plan.N)
    pg = spectral.local_periodogram(data, plan, taper)
    return whittle.WhittleObjective(pg, model), taper


def synthetic_pg(model, theta, plan, taper_kind="cosine"):
    """LocalPeriodogram whose ordinates equal the model density exactly."""
    taper = spectral.taper_weights(taper_kind, plan.N)
    freqs = 2.0 * np.pi * np.arange(1, plan.N // 2 + 1) / plan.N
    ords = np.empty((plan.M, len(freqs)))
    for j, u in enumerate(plan.u):
        ords[j] = spectral_density(model, theta, u, freqs)
    return spectral.LocalPeriodogram(ordinates=ords, freqs=freqs, plan=plan,
                                     taper=taper)


class TestObjective:
    @pytest.mark.parametrize("n,s", [(24, 10), (25, 11)])  # even and odd N
    def test_matches_direct_loops(self, n, s):
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        t = s * 2 + n
        data = sim(model, theta, t, seed=3)
        plan = spectral.make_plan(t, n, s)
        obj, taper = make_objective(model, data, plan)
        want = naive_whittle(model, theta, data, plan, taper)
        assert obj(theta) == pytest.approx(want, rel=1e-12)
        # a second parameter point exercises the MA/d dependence
        theta2 = [0.30, -0.10, 0.8, 0.0, -0.2]
        want2 = naive_whittle(model, theta2, data, plan, taper)
        assert obj(theta2) == pytest.approx(want2, rel=1e-12)

    def test_uniform_taper_matches_direct_loops(self):
        model = fn_model()
        theta = [0.2, 0.1, 0.9, -0.1]
        plan = spectral.make_plan(64, 32, 16)
        data = sim(model, theta, 64, seed=8)
        obj, taper = make_objective(model, data, plan, "uniform")
        want = naive_whittle(model, theta, data, plan, taper)
        assert obj(theta) == pytest.approx(want, rel=1e-12)

    def test_collapse_when_ordinates_equal_density(self):
        # With I = f the integrand is log f + 1 exactly, so the
        # objective equals (1/4 pi M) sum_j sum_k w_k (log f_jk + 1); the
        # comparison value is assembled here with independent weights.
        model = ma_model()
        theta = np.array([0.15, 0.20, 0.5, 0.3, 0.5])
        plan = spectral.make_plan(104, 52, 26)
        pg = synthetic_pg(model, theta, plan)
        obj = whittle.WhittleObjective(pg, model)
        w = np.full(26, 4.0 * np.pi / 52)
        w[-1] /= 2.0  # even N: the Nyquist ordinate is its own mirror
        want = 0.0
        for j, u in enumerate(plan.u):
            f = spectral_density(model, theta, u, pg.freqs)
            want += np.sum(w * (np.log(f) + 1.0))
        want /= 4.0 * np.pi * plan.M
        assert obj(theta) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(0.2, 5.0), d0=st.floats(0.02, 0.48),
           d1=st.floats(0.02, 0.48), b0=st.floats(0.2, 1.5),
           b1=st.floats(0.2, 1.5), vt=st.floats(-0.9, 0.9),
           dims=st.sampled_from([(104, 52, 26), (47, 25, 11)]))
    def test_objective_scale_equivariance(self, c, d0, d1, b0, b1, vt,
                                          dims):
        # sigma -> c sigma and y -> c y multiply f and I by c^2, so only
        # log f moves, by 2 log c at every ordinate:
        # L(theta_c; c y) - L(theta; y) = 2 log(c) sum_k w_k / (4 pi).
        t, n, s = dims
        model = ma_model()
        plan = spectral.make_plan(t, n, s)
        data = sim(model, [0.15, 0.20, 0.5, 0.3, 0.5], t, seed=3)
        theta = np.array([d0, d1 - d0, b0, b1 - b0, vt])
        theta_c = theta.copy()
        theta_c[2:4] *= c
        base = make_objective(model, data, plan)[0](theta)
        scaled = make_objective(model, c * data, plan)[0](theta_c)
        w = np.full(n // 2, 4.0 * np.pi / n)
        if n % 2 == 0:
            w[-1] /= 2.0  # the Nyquist ordinate is its own mirror
        want = 2.0 * math.log(c) * w.sum() / (4.0 * np.pi)
        assert abs(scaled - base - want) <= 1e-12 * max(abs(want), abs(base))

    def test_sigma_minimizer_matches_calculus(self):
        # for f = sigma^2 f1 the exact minimizer over sigma is
        # sigma^2 = sum_jk w I/f1 / (M sum_k w).
        model = fn_model(d_degree=0, s_degree=0)
        d0 = 0.22
        plan = spectral.make_plan(96, 32, 32)
        data = sim(model, [d0, 0.7], 96, seed=5)
        obj, _ = make_objective(model, data, plan)
        res = minimize_scalar(lambda s: obj([d0, s]), bounds=(1e-3, 5.0),
                              method="bounded",
                              options={"xatol": 1e-12})
        w = np.full(16, 4.0 * np.pi / 32)
        w[-1] /= 2.0
        pg = spectral.local_periodogram(
            data, plan, spectral.taper_weights("cosine", 32))
        num = 0.0
        for j, u in enumerate(plan.u):
            f1 = spectral_density(model, [d0, 1.0], u, pg.freqs)
            num += np.sum(w * pg.ordinates[j] / f1)
        sigma2 = num / (plan.M * np.sum(w))
        assert res.x ** 2 == pytest.approx(sigma2, rel=1e-6)

    def test_penalty_is_quadratic_beyond_clip(self):
        # Outside the feasible box the density freezes at the clipped value
        # and a quadratic term grows: L(d_hi + delta) - L(d_hi) =
        # PENALTY_SCALE * M * delta^2 for a constant d curve.
        model = fn_model(d_degree=0, s_degree=0)
        plan = spectral.make_plan(96, 32, 32)
        data = sim(model, [0.2, 0.7], 96, seed=6)
        obj, _ = make_objective(model, data, plan)
        d_hi = 0.499
        base = obj([d_hi, 0.7])
        for delta in (1e-6, 1e-3, 0.05):
            got = obj([d_hi + delta, 0.7]) - base
            assert got == pytest.approx(1e3 * plan.M * delta ** 2, rel=1e-6)

    def test_objective_continuous_at_boundary(self):
        model = fn_model(d_degree=0, s_degree=0)
        plan = spectral.make_plan(96, 32, 32)
        data = sim(model, [0.2, 0.7], 96, seed=6)
        obj, _ = make_objective(model, data, plan)
        eps = 1e-9
        below = obj([0.499 - eps, 0.7])
        above = obj([0.499 + eps, 0.7])
        assert abs(above - below) < 1e-6


class TestStartingPoint:
    def test_documented_start(self):
        model = ma_model()
        data = np.array([1.0, -1.0, 1.0, -1.0])
        x0 = whittle.starting_point(model, data)
        np.testing.assert_allclose(x0, [0.1, 0.0, 1.0, 0.0, 0.0])

    def test_log_links_start_in_link_space(self):
        model = ModelSpec(d=CurveSpec(POLY1, link="log"),
                          sigma=CurveSpec(POLY1, link="log"))
        data = np.array([2.0, -2.0, 2.0, -2.0])
        x0 = whittle.starting_point(model, data)
        assert x0[0] == pytest.approx(np.log(0.1))
        assert x0[2] == pytest.approx(np.log(2.0))

    def test_constant_data_floor(self):
        x0 = whittle.starting_point(fn_model(), np.ones(10))
        assert x0[2] == pytest.approx(1e-3)


class TestEstimate:
    def test_recovers_synthetic_fixed_point(self):
        # The population objective built from exact density ordinates is
        # minimized at the generating parameters; Nelder-Mead from a
        # perturbed start must come home to them.
        model = ma_model()
        theta_star = np.array([0.15, 0.20, 0.5, 0.3, 0.5])
        plan = spectral.make_plan(512, 104, 34)
        pg = synthetic_pg(model, theta_star, plan)
        obj = whittle.WhittleObjective(pg, model)
        from scipy.optimize import minimize
        start = theta_star + np.array([0.05, -0.05, 0.1, -0.05, 0.08])
        res = minimize(obj, start, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12,
                                "maxiter": 4000, "maxfev": 8000})
        np.testing.assert_allclose(res.x, theta_star, atol=1e-3)

    def test_estimate_runs_and_converges(self):
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        data = sim(model, theta, 512, seed=42)
        plan = spectral.make_plan(512, 104, 34)
        taper = spectral.taper_weights("cosine", 104)
        fit = whittle.estimate(data, model, plan, taper)
        assert fit.converged
        assert np.all(np.isfinite(fit.theta.values))
        assert fit.objective == pytest.approx(
            whittle.WhittleObjective(
                spectral.local_periodogram(data, plan, taper),
                model)(fit.theta.values), rel=1e-12)

    def test_estimate_deterministic(self):
        model = fn_model()
        theta = [0.2, 0.1, 0.8, -0.1]
        data = sim(model, theta, 256, seed=17)
        plan = spectral.make_plan(256, 64, 48)
        taper = spectral.taper_weights("cosine", 64)
        fit1 = whittle.estimate(data, model, plan, taper)
        fit2 = whittle.estimate(data, model, plan, taper)
        np.testing.assert_array_equal(fit1.theta.values, fit2.theta.values)
        assert fit1.objective == fit2.objective

    def test_scale_equivariance(self):
        # Doubling the data doubles sigma(u) and leaves d, theta1 alone.
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        data = sim(model, theta, 512, seed=11)
        plan = spectral.make_plan(512, 104, 34)
        taper = spectral.taper_weights("cosine", 104)
        fit1 = whittle.estimate(data, model, plan, taper)
        fit2 = whittle.estimate(2.0 * data, model, plan, taper)
        v1, v2 = fit1.theta.values, fit2.theta.values
        np.testing.assert_allclose(v2[[0, 1, 4]], v1[[0, 1, 4]], atol=2e-4)
        np.testing.assert_allclose(v2[2:4], 2.0 * v1[2:4], rtol=2e-4)

    def test_explicit_start_accepted(self):
        model = fn_model(d_degree=0, s_degree=0)
        data = sim(model, [0.2, 0.7], 96, seed=1)
        plan = spectral.make_plan(96, 32, 32)
        taper = spectral.taper_weights("cosine", 32)
        fit = whittle.estimate(data, model, plan, taper, start=[0.2, 0.7])
        assert fit.converged

    def test_rejects_bad_data(self):
        model = fn_model()
        plan = spectral.make_plan(64, 32, 16)
        taper = spectral.taper_weights("cosine", 32)
        with pytest.raises(ValueError):
            whittle.estimate(np.zeros(63), model, plan, taper)
        bad = np.zeros(64)
        bad[10] = np.nan
        with pytest.raises(ValueError):
            whittle.estimate(bad, model, plan, taper)


class TestFitReports:
    def test_summary_and_csv(self, tmp_path):
        model = fn_model(d_degree=0, s_degree=0)
        data = sim(model, [0.2, 0.7], 96, seed=1)
        plan = spectral.make_plan(96, 32, 32)
        taper = spectral.taper_weights("cosine", 32)
        fit = whittle.estimate(data, model, plan, taper)
        text = whittle.fit_summary(fit)
        assert "converged: true" in text
        assert "plan: T=96 N=32 S=32 M=3" in text
        path = tmp_path / "fit.csv"
        whittle.write_fit_csv(fit, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "param,estimate"
        assert len(lines) == 1 + model.n_params
        name, value = lines[1].split(",")
        assert name == fit.theta.names[0]
        assert float(value) == fit.theta.values[0]
