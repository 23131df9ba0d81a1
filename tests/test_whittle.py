"""Blockwise Whittle objective, its derivatives, and estimation: projected
Newton in box coordinates, SLSQP for every other model."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import LinearConstraint, minimize, minimize_scalar

from lswhittle import (BasisSpec, CurveSpec, ModelSpec, mcharness, simulator,
                       spectral, spectral_density, tvmodel, whittle)
from lswhittle.asymptotics import catalog_model

from oracles import (fd_gradient, naive_periodogram, naive_whittle,
                     score_tensor_derivatives)

POLY0 = BasisSpec("polynomial", 0)
POLY1 = BasisSpec("polynomial", 1)
SEC4_TRUTH = np.array([0.15, 0.20, 0.5, 0.3, 0.5])


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


def loop_whittle(model, theta, data, plan, taper):
    """The objective assembled one block and one frequency at a time, from
    naive_periodogram and scalar spectral_density values."""
    n = plan.N
    lam = [2.0 * math.pi * k / n for k in range(1, n // 2 + 1)]
    total = 0.0
    for j in range(plan.M):
        ords = naive_periodogram(data[j * plan.S: j * plan.S + n],
                                 taper.weights, lam)
        u = (j * plan.S + n // 2) / plan.T
        for k in range(n // 2):
            w = 2.0 * (2.0 * math.pi / n)
            if n % 2 == 0 and k == n // 2 - 1:
                w *= 0.5
            f = float(spectral_density(model, theta, u, lam[k]))
            total += w * (math.log(f) + ords[k] / f)
    return total / (4.0 * math.pi * plan.M)


class TestNaiveWhittle:
    @pytest.mark.parametrize("taper_kind", ["cosine", "uniform"])
    @pytest.mark.parametrize("n,s", [(24, 10), (25, 11)])  # even and odd N
    def test_matches_loop_assembly(self, n, s, taper_kind):
        model = ma_model()
        t = 3 * s + n
        data = sim(model, SEC4_TRUTH, t, seed=2)
        plan = spectral.make_plan(t, n, s)
        taper = spectral.taper_weights(taper_kind, n)
        for theta in (SEC4_TRUTH, [0.30, -0.10, 0.8, 0.0, -0.2]):
            want = loop_whittle(model, theta, data, plan, taper)
            got = naive_whittle(model, theta, data, plan, taper)
            assert abs(got - want) <= 1e-13 * abs(want)


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


CATALOG_CENTRES = {
    "example2": [0.2, 0.1, 0.7, 0.1],       # identity links
    "example3": [-1.6, 0.3, 0.0, 0.2],      # log links
    "harmonic": [0.2, 0.05, 0.03, 0.8],
    "example5": [0.3, 0.4, -0.3],           # AR and MA slope bases
    "sec4": [0.15, 0.2, 0.5, 0.3, 0.5],
}


def clipped_objective(obj, theta):
    """The objective as np.clip and the summed squared clip distance give
    it, curve by curve, for comparison with the in-box fast path."""
    vals = tvmodel.slot_values(obj._slots, np.asarray(theta, dtype=float))
    bounds = {"d": (tvmodel.D_LOW, tvmodel.D_HIGH),
              "sigma": (tvmodel.SIGMA_LOW, np.inf)}
    penalty = 0.0
    curves = {}
    for key, v in vals.items():
        lo, hi = bounds.get(key, (-tvmodel.ARMA_BOUND, tvmodel.ARMA_BOUND))
        c = np.clip(v, lo, hi)
        penalty += ((v - c) ** 2).sum()
        curves[key] = c[:, None]
    logf = tvmodel.log_density(obj._slots, curves, obj._freqs)
    dev = logf + obj.ordinates * np.exp(-logf)
    value = float(obj._norm * (dev @ obj._w).sum()
                  + whittle.PENALTY_SCALE * penalty)
    return value, penalty > 0.0


class TestObjectiveBitIdentity:
    @pytest.mark.parametrize("family", sorted(CATALOG_CENTRES))
    def test_equals_clipped_reference(self, family):
        # Inside the box the objective skips the clip and the penalty;
        # outside it clips with minimum/maximum.  Both must give the
        # reference's bits, for every link, basis and AR/MA factor.
        model = catalog_model(family)
        centre = np.array(CATALOG_CENTRES[family])
        data = sim(ma_model(), [0.15, 0.20, 0.5, 0.3, 0.5], 128, seed=4)
        rng = np.random.default_rng(sorted(CATALOG_CENTRES).index(family))
        seen = set()
        for n, s in ((32, 16), (33, 19)):  # even and odd N
            obj, _ = make_objective(model, data, spectral.make_plan(128, n, s))
            for i in range(60):
                scale = 0.02 if i % 2 else 0.5
                theta = centre + scale * rng.standard_normal(len(centre))
                want, clipped = clipped_objective(obj, theta)
                got = obj(theta)
                assert np.float64(got).tobytes() == \
                    np.float64(want).tobytes(), (n, theta)
                seen.add(clipped)
        assert seen == {False, True}


class TestGradient:
    @pytest.mark.parametrize("family", sorted(CATALOG_CENTRES))
    @pytest.mark.parametrize("n,s", [(32, 16), (33, 19)])  # even and odd N
    def test_matches_central_differences(self, family, n, s):
        model = catalog_model(family)
        centre = np.array(CATALOG_CENTRES[family])
        data = sim(ma_model(), SEC4_TRUTH, 128, seed=4)
        obj, _ = make_objective(model, data, spectral.make_plan(128, n, s))
        np.testing.assert_allclose(obj.gradient(centre),
                                   fd_gradient(obj, centre, step=1e-6),
                                   rtol=1e-6)


class TestHessian:
    @pytest.mark.parametrize("family", sorted(CATALOG_CENTRES))
    @pytest.mark.parametrize("n,s", [(32, 16), (33, 19)])  # even and odd N
    def test_matches_central_differences_of_gradient(self, family, n, s):
        model = catalog_model(family)
        centre = np.array(CATALOG_CENTRES[family])
        data = sim(ma_model(), SEC4_TRUTH, 128, seed=4)
        obj, _ = make_objective(model, data, spectral.make_plan(128, n, s))
        grad, hess, gauss_newton = obj.derivatives(centre)
        np.testing.assert_array_equal(grad, obj.gradient(centre))
        fd = np.array([fd_gradient(lambda x: obj.gradient(x)[i], centre,
                                   step=1e-6)
                       for i in range(len(centre))])
        np.testing.assert_allclose(hess, fd, rtol=1e-6,
                                   atol=1e-9 * np.abs(fd).max())
        # the Gauss-Newton part is symmetric positive semidefinite
        np.testing.assert_allclose(gauss_newton, gauss_newton.T, atol=1e-15)
        assert np.linalg.eigvalsh(gauss_newton).min() >= 0.0


LOG_LINK_AR = ModelSpec(d=CurveSpec(POLY1, link="log"),
                        sigma=CurveSpec(POLY0, link="log"),
                        ar=(CurveSpec(POLY1, link="log", sign=-1),))
CONTRACTION_CASES = {**{family: (catalog_model(family), centre)
                        for family, centre in CATALOG_CENTRES.items()},
                     "log-link-ar": (LOG_LINK_AR,
                                     [-1.6, 0.3, -0.2, -1.0, 0.4])}


def on_a_bound(model, centre, rng):
    """The point where the ray from centre in a random direction leaves the
    feasible polytope: one constraint row holds with equality there."""
    A, lo, hi = tvmodel._constraint_rows(model)[:3]
    direction = rng.standard_normal(len(centre))
    eta, step = A @ centre, A @ direction
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(step > 0.0, (hi - eta) / step, (lo - eta) / step)
    return centre + np.nanmin(np.where(reach > 0.0, reach, np.inf)) * direction


class TestContraction:
    """derivatives (the J'GJ contraction of per-curve kernels) against the
    score-tensor reference of tests/oracles.py."""

    @pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
    @pytest.mark.parametrize("n,s", [(32, 16), (33, 19)])  # even and odd N
    def test_matches_score_tensor(self, case, n, s):
        model, centre = CONTRACTION_CASES[case]
        centre = np.array(centre)
        data = sim(ma_model(), SEC4_TRUTH, 128, seed=4)
        obj, _ = make_objective(model, data, spectral.make_plan(128, n, s))
        rng = np.random.default_rng(n)
        points = [centre, *(on_a_bound(model, centre, rng) for _ in range(3))]
        for theta in points:
            assert tvmodel.validate_params(model, theta).feasible
            for got, want in zip(obj.derivatives(theta),
                                 score_tensor_derivatives(obj, theta)):
                np.testing.assert_allclose(
                    got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # the last point lies on a bound: some check point is active
        assert tvmodel.active_check_points(model, points[-1])


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
        # minimized at the generating parameters; the fit, from the
        # documented start and from a perturbed one, comes home to them.
        model = ma_model()
        theta_star = np.array([0.15, 0.20, 0.5, 0.3, 0.5])
        plan = spectral.make_plan(512, 104, 34)
        pg = synthetic_pg(model, theta_star, plan)
        obj = whittle.WhittleObjective(pg, model)
        starts = (whittle.starting_point(model, sim(model, theta_star, 512)),
                  theta_star + np.array([0.05, -0.05, 0.1, -0.05, 0.08]))
        for start in starts:
            res = whittle.fit_objective(obj, start)
            assert res.success, res.message
            np.testing.assert_allclose(res.x, theta_star, rtol=0.0, atol=1e-8)

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

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_refuses_data_whose_squares_overflow(self, scale):
        # Finite data whose squares overflow float64 are refused with their
        # scale named, before the fit, and without a floating-point warning.
        model = ma_model()
        data = sim(model, [0.15, 0.20, 0.5, 0.3, 0.5], 256, seed=5) * scale
        plan = spectral.make_plan(256, 64, 32)
        taper = spectral.taper_weights("cosine", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"data of scale {np.max(np.abs(data)):.3g} overflow")):
                whittle.estimate(data, model, plan, taper)

    def test_overflowing_derivatives_stop_without_warning(self):
        # The periodogram and the sample SD of this path are finite, but
        # I/f overflows at the start: the fit stops unconverged, and
        # derivatives() returns non-finite entries without a warning.
        model = ma_model()
        data = sim(model, SEC4_TRUTH, 256, seed=5) * 6e152
        plan = spectral.make_plan(256, 64, 32)
        taper = spectral.taper_weights("cosine", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = whittle.estimate(data, model, plan, taper, start=SEC4_TRUTH)
        assert not fit.converged
        assert fit.message == "derivatives not finite"

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
        # Doubling the data doubles sigma(u) and leaves d, theta1 alone: on
        # one path of its own and on the first 4 of AC7's seed.
        model = ma_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        paths = [sim(model, theta, 512, seed=11),
                 *mcharness.simulate_paths(model, theta, 512, 4, 20260814)]
        plan = spectral.make_plan(512, 104, 34)
        taper = spectral.taper_weights("cosine", 104)
        for data in paths:
            fit1 = whittle.estimate(data, model, plan, taper)
            fit2 = whittle.estimate(2.0 * data, model, plan, taper)
            v1, v2 = fit1.theta.values, fit2.theta.values
            np.testing.assert_allclose(v2[[0, 1, 4]], v1[[0, 1, 4]],
                                       rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(v2[2:4], 2.0 * v1[2:4], rtol=1e-10)

    def test_explicit_start_accepted(self):
        model = fn_model(d_degree=0, s_degree=0)
        data = sim(model, [0.2, 0.7], 96, seed=1)
        plan = spectral.make_plan(96, 32, 32)
        taper = spectral.taper_weights("cosine", 32)
        fit = whittle.estimate(data, model, plan, taper, start=[0.2, 0.7])
        assert fit.converged

    @pytest.mark.parametrize("model,truth", [
        (catalog_model("harmonic"), CATALOG_CENTRES["harmonic"]),
        (ModelSpec(d=CurveSpec(BasisSpec("polynomial", 2)),
                   sigma=CurveSpec(POLY1)), [0.2, 0.1, -0.05, 0.8, 0.1]),
    ], ids=["harmonic-d", "quadratic-d"])
    def test_models_without_box_coordinates(self, model, truth):
        # no box exists for these curves, so the fit is SLSQP on the rows
        assert tvmodel.box_coordinates(model) is None
        data = sim(model, truth, 256, seed=12)
        plan = spectral.make_plan(256, 64, 32)
        taper = spectral.taper_weights("cosine", 64)
        fit = whittle.estimate(data, model, plan, taper)
        assert fit.converged, fit.message
        assert tvmodel.validate_params(model, fit.theta).feasible
        obj = whittle.WhittleObjective(
            spectral.local_periodogram(data, plan, taper), model)
        assert fit.objective <= obj(truth)

    def test_evaluations_count_objective_calls(self, monkeypatch):
        calls = []
        call = whittle.WhittleObjective.__call__

        def counted(obj, theta):
            calls.append(theta)
            return call(obj, theta)

        monkeypatch.setattr(whittle.WhittleObjective, "__call__", counted)
        model = fn_model()
        data = sim(model, [0.2, 0.1, 0.8, -0.1], 256, seed=17)
        plan = spectral.make_plan(256, 64, 48)
        fit = whittle.estimate(data, model, plan,
                               spectral.taper_weights("cosine", 64))
        assert fit.evaluations == len(calls) > 0

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


@pytest.fixture(scope="module")
def sec4_case():
    """sec4 at T = 512, plan (104, 34), cosine taper, as in AC7."""
    plan = spectral.make_plan(512, 104, 34)
    return catalog_model("sec4"), plan, spectral.taper_weights("cosine", 104)


@pytest.fixture(scope="module")
def ac7_fits(sec4_case):
    """The first 16 replications of AC7's seed and their fits."""
    model, plan, taper = sec4_case
    paths = mcharness.simulate_paths(model, SEC4_TRUTH, 512, 16, 20260814)
    return [(y, whittle.estimate(y, model, plan, taper)) for y in paths]


def assert_not_above_truth(case, data, fit):
    model, plan, taper = case
    obj, _ = make_objective(model, data, plan)
    assert fit.objective <= obj(SEC4_TRUTH)
    assert (naive_whittle(model, fit.theta.values, data, plan, taper)
            <= naive_whittle(model, SEC4_TRUTH, data, plan, taper))


class TestArgmin:
    """The fit's objective is no higher than the truth's."""

    def test_recorded_miss(self, sec4_case):
        # With scipy's default simplex this fit stalled at -0.88960,
        # above -0.89572 at the truth.
        model = sec4_case[0]
        data = mcharness.simulate_paths(model, SEC4_TRUTH, 512, 2,
                                        4010755824)[1]
        assert_not_above_truth(sec4_case, data,
                               whittle.estimate(data, *sec4_case))

    def test_ac7_replications(self, sec4_case, ac7_fits):
        for data, fit in ac7_fits:
            assert_not_above_truth(sec4_case, data, fit)

    def test_median_evaluations(self, ac7_fits):
        # 21 with SLSQP on the analytic gradient, 9 with projected Newton
        assert np.median([fit.evaluations for _, fit in ac7_fits]) <= 20

    def test_fits_are_feasible_and_converged(self, sec4_case, ac7_fits):
        model = sec4_case[0]
        for _, fit in ac7_fits:
            assert tvmodel.validate_params(model, fit.theta).feasible
            assert fit.converged, fit.message

    def test_not_above_slsqp(self, sec4_case, ac7_fits):
        model, plan, taper = sec4_case
        for data, fit in ac7_fits:
            obj, _ = make_objective(model, data, plan)
            ref = slsqp(obj, whittle.starting_point(model, data))
            assert fit.objective <= ref.fun + 1e-12

    @pytest.mark.parametrize("family",
                             ["example2", "example3", "example5", "sec4"])
    def test_first_order_point_in_box_coordinates(self, sec4_case, family):
        # the projected gradient step vanishes: |z - clip(z - dL/dz)| = 0
        model = catalog_model(family)
        B, B_inv, lo, hi = tvmodel.box_coordinates(model)
        _, plan, taper = sec4_case
        for data in mcharness.simulate_paths(sec4_case[0], SEC4_TRUTH, 512,
                                             8, 20260814):
            fit = whittle.estimate(data, model, plan, taper)
            assert fit.converged, fit.message
            obj, _ = make_objective(model, data, plan)
            z = B @ fit.theta.values
            grad_z = obj.gradient(fit.theta.values) @ B_inv
            assert np.abs(z - np.clip(z - grad_z, lo, hi)).max() <= 1e-8

    def test_single_block_plan(self):
        # With M = 1 the slopes are not identified: the Hessian's free
        # block is singular, and the fit takes a least-squares step.
        model = catalog_model("sec4")
        data = sim(model, SEC4_TRUTH, 128, seed=7)
        plan = spectral.make_plan(128, 128, 128)
        fit = whittle.estimate(data, model, plan,
                               spectral.taper_weights("cosine", 128))
        assert plan.M == 1 and fit.converged, fit.message
        assert tvmodel.validate_params(model, fit.theta).feasible
        obj, _ = make_objective(model, data, plan)
        ref = slsqp(obj, whittle.starting_point(model, data))
        assert abs(fit.objective - ref.fun) <= 1e-10

    def test_active_lists_check_points_on_a_bound(self, sec4_case, ac7_fits):
        # 11 of these 16 fits end with d on a bound at u = 0 or 1
        model = sec4_case[0]
        on_bound = [fit for _, fit in ac7_fits if fit.active]
        assert len(on_bound) >= 8
        for _, fit in ac7_fits:
            d = tvmodel.curve_values(model, fit.theta, [0.0, 1.0])["d"]
            edge = np.minimum(np.abs(d - tvmodel.D_LOW),
                              np.abs(d - tvmodel.D_HIGH)) <= 1e-12
            assert fit.active == tuple(("d", u) for u, e in
                                       zip((0.0, 1.0), edge) if e)
        text = whittle.fit_summary(on_bound[0])
        assert "\nactive: d at u=" in text


class TestStoppingRules:
    @pytest.fixture
    def case(self):
        model = catalog_model("sec4")
        data = sim(model, SEC4_TRUTH, 256, seed=5)
        obj, _ = make_objective(model, data, spectral.make_plan(256, 64, 32))
        return obj, whittle.starting_point(model, data)

    def test_newton_decrement(self, case):
        res = whittle.fit_objective(*case)
        assert res.success and res.message == "Newton decrement <= 1e-15"

    def test_iteration_limit(self, case, monkeypatch):
        monkeypatch.setattr(whittle, "MAX_ITER", 2)
        res = whittle.fit_objective(*case)
        assert not res.success and res.nit == 2
        assert res.message == "iteration limit (2) reached"

    @staticmethod
    def patch_derivatives(monkeypatch, change):
        derivatives = whittle.WhittleObjective.derivatives
        monkeypatch.setattr(whittle.WhittleObjective, "derivatives",
                            lambda self, theta: change(derivatives(self, theta)))

    def test_line_search_stall(self, case, monkeypatch):
        # an ascent direction never passes the Armijo test
        obj, x0 = case
        self.patch_derivatives(
            monkeypatch, lambda d: d._replace(gradient=-d.gradient))
        res = whittle.fit_objective(obj, x0)
        assert not res.success and res.message == "line search stalled"
        assert res.fun == obj(x0)

    def test_derivatives_not_finite(self, case, monkeypatch):
        obj, x0 = case
        self.patch_derivatives(
            monkeypatch, lambda d: d._replace(hessian=d.hessian * np.nan))
        res = whittle.fit_objective(obj, x0)
        assert not res.success and res.message == "derivatives not finite"
        assert res.nit == 0 and res.fun == obj(x0)

    def test_zero_gauss_newton_matrix(self):
        # With I = 0 the Gauss-Newton matrix is zero and H is not positive
        # definite: the fit takes gradient steps and must not raise.
        model = catalog_model("sec4")
        data = np.zeros(256)
        plan = spectral.make_plan(256, 64, 32)
        fit = whittle.estimate(data, model, plan,
                               spectral.taper_weights("cosine", 64))
        assert fit.converged, fit.message
        obj, _ = make_objective(model, data, plan)
        with np.errstate(invalid="ignore"):  # SLSQP steps to sigma < 0 here
            ref = slsqp(obj, whittle.starting_point(model, data))
        assert fit.objective <= ref.fun


def slsqp(obj, x0):
    """scipy's SLSQP on the objective and its gradient, inside the model's
    constraint rows."""
    A, lo, hi = tvmodel._constraint_rows(obj.model)[:3]
    return minimize(obj, x0, jac=obj.gradient, method="SLSQP",
                    constraints=[LinearConstraint(A, lo, hi)],
                    options={"ftol": 1e-12})


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
        assert f"evaluations: {fit.evaluations}" in text
        assert fit.message and f"stopped: {fit.message}\n" in text
        assert "active: none\n" in text
        path = tmp_path / "fit.csv"
        whittle.write_fit_csv(fit, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "param,estimate"
        assert len(lines) == 1 + model.n_params
        name, value = lines[1].split(",")
        assert name == fit.theta.names[0]
        assert float(value) == fit.theta.values[0]
