"""Curve evaluation, parameter validation, spectral density, gradients."""
import numpy as np
import numpy.testing as npt
import pytest

from lswhittle import (BasisSpec, CurveSpec, InfeasibleParameterError,
                       ModelSpec, curve_values,
                       log_spectral_gradient_grid, require_feasible,
                       spectral_density, validate_params)
from lswhittle.asymptotics import catalog_model
from lswhittle.tvmodel import (D_HIGH, D_LOW, FEASIBILITY_TOL, LOG_2PI, U_RULE,
                               active_check_points, box_coordinates,
                               curve_bounds, frequencies, log_density,
                               slot_table, slot_values)

from oracles import fd_gradient

POLY1 = BasisSpec("polynomial", 1)
POLY0 = BasisSpec("polynomial", 0)


def lsfn_model(d_link="identity", s_link="identity", d_degree=1, s_degree=1):
    return ModelSpec(
        d=CurveSpec(BasisSpec("polynomial", d_degree), link=d_link),
        sigma=CurveSpec(BasisSpec("polynomial", s_degree), link=s_link),
    )


def table_model():
    """Linear d, linear sigma, one constant MA factor (1 - c B)."""
    return ModelSpec(
        d=CurveSpec(POLY1),
        sigma=CurveSpec(POLY1),
        ma=(CurveSpec(POLY0, sign=-1),),
    )


def one_curve(key, spec, coeffs, u):
    """curve_values of the curve in slot `key` ("d" or "sigma") of a model
    whose other slot is the constant 0.3."""
    const = CurveSpec(POLY0)
    if key == "d":
        model, theta = ModelSpec(d=spec, sigma=const), [*coeffs, 0.3]
    else:
        model, theta = ModelSpec(d=const, sigma=spec), [0.3, *coeffs]
    return curve_values(model, theta, u)[key]


class TestEvalCurve:
    def test_linear_identity_endpoint(self):
        npt.assert_allclose(one_curve("d", CurveSpec(POLY1), [0.20, 0.25], 1.0),
                            [0.45], rtol=1e-15)

    def test_zero_coeffs_identity(self):
        vals = one_curve("d", CurveSpec(POLY1), [0.0, 0.0], [0.0, 0.3, 1.0])
        npt.assert_array_equal(vals, 0.0)

    def test_zero_coeffs_log_link(self):
        spec = CurveSpec(POLY1, link="log")
        npt.assert_array_equal(one_curve("sigma", spec, [0.0, 0.0], 0.5), [1.0])

    def test_log_link_positive_everywhere(self):
        rng = np.random.default_rng(7)
        u = np.linspace(0, 1, 31)
        for _ in range(50):
            coeffs = rng.normal(scale=3.0, size=2)
            vals = one_curve("sigma", CurveSpec(POLY1, link="log"), coeffs, u)
            assert np.all(vals > 0)

    def test_harmonic_basis(self):
        basis = BasisSpec("harmonic", freqs=(1.0, 2.0))
        # g = (1, cos u, cos 2u)
        val = one_curve("d", CurveSpec(basis), [0.1, 0.2, 0.3], 0.5)
        expected = 0.1 + 0.2 * np.cos(0.5) + 0.3 * np.cos(1.0)
        npt.assert_allclose(val, [expected], rtol=1e-14)

    def test_u_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_curve("d", CurveSpec(POLY1), [0.1, 0.1], 1.5)

    def test_coeff_length_mismatch(self):
        with pytest.raises(ValueError):
            one_curve("d", CurveSpec(POLY1), [0.1], 0.5)

    def test_empty_basis_pins_link_origin(self):
        empty = BasisSpec("polynomial", 0, intercept=False)
        assert empty.size == 0
        spec = CurveSpec(empty, link="log")
        npt.assert_array_equal(one_curve("sigma", spec, [], 0.3), [1.0])


class TestValidateParams:
    def test_case1_feasible(self):
        model = table_model()
        report = validate_params(model, [0.15, 0.20, 0.5, 0.3, 0.5])
        assert report.feasible
        assert report.violations == ()

    def test_steep_memory_curve_infeasible(self):
        model = lsfn_model()
        report = validate_params(model, [0.30, 0.30, 1.0, 0.0])
        assert not report.feasible
        comps = {v[0] for v in report.violations}
        assert comps == {"d"}
        # d(1) = 0.60 must be among the flagged values
        worst = max(v[2] for v in report.violations)
        assert worst == pytest.approx(0.60)

    def test_decreasing_sigma_feasible(self):
        model = lsfn_model()
        report = validate_params(model, [0.15, 0.20, 0.8, -0.2])
        assert report.feasible

    def test_negative_sigma_flagged(self):
        model = lsfn_model()
        report = validate_params(model, [0.15, 0.20, 0.5, -0.6])
        assert not report.feasible
        assert any(v[0] == "sigma" for v in report.violations)

    def test_arma_box(self):
        model = table_model()
        report = validate_params(model, [0.15, 0.20, 0.5, 0.3, 1.2])
        assert not report.feasible
        assert any(v[0] == "ma1" for v in report.violations)

    def test_pinned_point_is_not_checked(self):
        # example5's d(u) = a1 u is 0 at u = 0 for every theta: the basis
        # pins it there, so that point gives no constraint
        report = validate_params(catalog_model("example5"), [0.3, 0.4, -0.5])
        assert report.feasible

    @pytest.mark.parametrize("slot", ["d", "ar"])
    def test_pinned_log_link_point_is_checked(self, slot):
        # without an intercept a log-link curve is exp(0) = 1 at u = 0,
        # above D_HIGH and on the unit circle, whatever its coefficient
        slope = CurveSpec(BasisSpec("polynomial", 1, intercept=False),
                          link="log")
        if slot == "d":
            model = ModelSpec(d=slope, sigma=CurveSpec(BasisSpec("polynomial")))
            theta, key = [-2.0, 1.0], "d"
        else:
            model = ModelSpec(d=CurveSpec(BasisSpec("polynomial")),
                              sigma=CurveSpec(BasisSpec("polynomial")),
                              ar=(slope,))
            theta, key = [0.2, 1.0, -3.0], "ar1"
        report = validate_params(model, theta)
        assert report.violations == ((key, 0.0, 1.0,
                                      curve_bounds(key)[1]),)
        with pytest.raises(InfeasibleParameterError):
            require_feasible(model, theta)

    def test_curve_checked_at_fisher_nodes(self):
        # d(u) = 0.1 + 0.3 cos(200 pi u) is 0.4 on the 101-point grid but
        # dips below 0 between its points, at nodes of the Fisher u rule
        model = ModelSpec(
            d=CurveSpec(BasisSpec("harmonic", freqs=(200.0 * np.pi,))),
            sigma=CurveSpec(BasisSpec("polynomial")))
        report = validate_params(model, [0.1, 0.3, 1.0])
        assert not report.feasible
        grid = np.linspace(0.0, 1.0, 101)
        assert all(np.isin(v[1], U_RULE[0]) and not np.isin(v[1], grid)
                   for v in report.violations)

    def test_box_is_closed(self):
        model = lsfn_model()
        assert validate_params(model, [D_HIGH, 0.0, 1.0, 0.0]).feasible
        assert validate_params(model, [D_LOW, 0.0, 1.0, 0.0]).feasible
        assert not validate_params(model, [D_LOW, -1e-9, 1.0, 0.0]).feasible

    def test_feasibility_tolerance(self):
        # a bound holds within FEASIBILITY_TOL = 1e-12 in link space: an
        # optimizer that stops on D_HIGH may overshoot it by rounding
        model = lsfn_model()
        assert FEASIBILITY_TOL == 1e-12
        assert validate_params(model, [D_HIGH + 1e-13, 0.0, 1.0, 0.0]).feasible
        assert validate_params(model, [D_LOW - 1e-13, 0.0, 1.0, 0.0]).feasible
        report = validate_params(model, [D_HIGH + 1e-9, 0.0, 1.0, 0.0])
        assert not report.feasible
        assert report.violations[0][3] == D_HIGH

    def test_active_check_points(self):
        # check points within FEASIBILITY_TOL of a bound, by curve and u
        model = table_model()
        assert active_check_points(model, [0.15, 0.20, 0.5, 0.3, 0.5]) == ()
        theta = [0.2, D_HIGH - 0.2 + 1e-13, 0.5, 0.3, -1.0 + 1e-6]
        assert validate_params(model, theta).feasible
        assert active_check_points(model, theta) == (
            ("d", 1.0), ("ma1", 0.0), ("ma1", 1.0))

    def test_require_feasible_raises(self):
        model = lsfn_model()
        with pytest.raises(InfeasibleParameterError):
            require_feasible(model, [0.30, 0.30, 1.0, 0.0])

    def test_curve_values_table(self):
        model = table_model()
        vals = curve_values(model, [0.15, 0.20, 0.5, 0.3, 0.5], np.array([0.0, 1.0]))
        npt.assert_allclose(vals["d"], [0.15, 0.35])
        npt.assert_allclose(vals["sigma"], [0.5, 0.8])
        npt.assert_allclose(vals["ma1"], [0.5, 0.5])


class TestBoxCoordinates:
    @pytest.mark.parametrize("family",
                             ["example2", "example3", "example5", "sec4"])
    def test_box_is_the_feasible_set(self, family):
        # lo <= B theta <= hi holds exactly where validate_params accepts
        model = catalog_model(family)
        B, B_inv, lo, hi = box_coordinates(model)
        npt.assert_allclose(B @ B_inv, np.eye(model.n_params), atol=1e-15)
        rng = np.random.default_rng(3)
        seen = set()
        a, b = np.maximum(lo, -2.0), np.minimum(hi, 2.0)
        for _ in range(400):
            z = a + (b - a) * rng.uniform(-0.1, 1.1, len(lo))
            inside = bool(np.all((lo <= z) & (z <= hi)))
            assert validate_params(model, B_inv @ z).feasible == inside
            seen.add(inside)
        assert seen == {False, True}

    def test_unbounded_coefficients_get_unit_rows(self):
        # a log-link sigma has no constraint row: its coefficients are free
        B, _, lo, hi = box_coordinates(catalog_model("example3"))
        npt.assert_array_equal(B[2:], np.eye(4)[2:])
        assert np.all(np.isinf(lo[2:])) and np.all(np.isinf(hi[2:]))

    @pytest.mark.parametrize("model", [
        catalog_model("harmonic"),
        lsfn_model(d_degree=2),
    ], ids=["harmonic-d", "quadratic-d"])
    def test_none_beyond_degree_one(self, model):
        assert box_coordinates(model) is None


class TestSpectralDensity:
    def test_fn_at_pi(self):
        model = lsfn_model(d_degree=0, s_degree=0)
        for d in (0.1, 0.25, 0.4):
            f = spectral_density(model, [d, 1.0], 0.5, np.pi)
            assert f == pytest.approx(2.0 ** (-2 * d) / (2 * np.pi), rel=1e-14)

    def test_fn_at_pi_over_3(self):
        # 2 sin(pi/6) = 1, so the memory factor drops out entirely.
        model = lsfn_model(d_degree=0, s_degree=0)
        f = spectral_density(model, [0.25, 1.0], 0.5, np.pi / 3)
        assert f == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)

    def test_full_model_direct_formula(self):
        model = table_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        rng = np.random.default_rng(3)
        for _ in range(40):
            u = rng.uniform(0, 1)
            lam = rng.uniform(0.05, np.pi)
            d = 0.15 + 0.20 * u
            sig = 0.5 + 0.3 * u
            ma = abs(1 - 0.5 * np.exp(-1j * lam)) ** 2
            direct = sig ** 2 / (2 * np.pi) * ma * (2 * np.sin(lam / 2)) ** (-2 * d)
            assert spectral_density(model, theta, u, lam) == pytest.approx(
                direct, rel=1e-12)

    def test_case1_midpoint_value(self):
        # At lambda = pi/3 the memory factor is exactly 1, leaving
        # sigma(1/2)^2 / (2 pi) * |1 - 0.5 e^{-i pi/3}|^2.
        model = table_model()
        f = spectral_density(model, [0.15, 0.20, 0.5, 0.3, 0.5], 0.5, np.pi / 3)
        assert f == pytest.approx(0.4225 * 0.75 / (2 * np.pi), rel=1e-12)

    def test_even_in_lambda(self):
        model = table_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        for lam in (0.01, 0.5, 2.0, np.pi):
            assert spectral_density(model, theta, 0.3, lam) == \
                spectral_density(model, theta, 0.3, -lam)

    def test_low_frequency_power_law(self):
        model = lsfn_model()
        theta = [0.15, 0.20, 1.0, 0.0]
        u = 0.5
        d = 0.25
        vals = [spectral_density(model, theta, u, lam) * lam ** (2 * d)
                for lam in (1e-2, 1e-3, 1e-4)]
        assert abs(vals[1] / vals[0] - 1) < 0.01
        assert abs(vals[2] / vals[1] - 1) < 0.01

    def test_zero_frequency_rejected(self):
        model = lsfn_model()
        with pytest.raises(ValueError):
            spectral_density(model, [0.15, 0.20, 1.0, 0.0], 0.5, 0.0)

    def test_out_of_band_frequency_rejected(self):
        model = lsfn_model()
        with pytest.raises(ValueError):
            spectral_density(model, [0.15, 0.20, 1.0, 0.0], 0.5, 3.5)

    def test_positive(self):
        model = table_model()
        theta = [0.15, 0.20, 0.5, 0.3, 0.5]
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = spectral_density(model, theta, rng.uniform(0, 1),
                                 rng.uniform(1e-4, np.pi))
            assert f > 0


def feasible_table_theta(model, rng):
    while True:
        theta = np.array([rng.uniform(0.05, 0.25), rng.uniform(-0.1, 0.2),
                          rng.uniform(0.3, 1.5), rng.uniform(-0.2, 0.4),
                          rng.uniform(-0.8, 0.8)])
        if validate_params(model, theta).feasible:
            return theta


def example5_theta(model, rng):
    """d = a1 u, AR (1 + a2 u B), MA (1 + a3 u B), both with sign +1."""
    while True:
        theta = np.array([rng.uniform(0.05, 0.45), rng.uniform(-0.8, 0.8),
                          rng.uniform(-0.8, 0.8)])
        if validate_params(model, theta).feasible:
            return theta


class TestLogDensity:
    @pytest.mark.parametrize("family,theta", [
        ("sec4", [0.15, 0.20, 0.5, 0.3, 0.5]),
        ("example5", [0.3, 0.4, -0.3]),
    ])
    def test_terms_summed_in_slot_order(self, family, theta):
        # The in-place build must give the bits of the plain expression,
        # term by term, on the (u, lam) grid and on paired points.
        model = catalog_model(family)
        rng = np.random.default_rng(8)
        u, lam = rng.uniform(0, 1, 9), rng.uniform(-np.pi, np.pi, 11)
        for uu, ll in ((u[:, None], lam), (u, lam[:9])):
            table = slot_table(model, np.ravel(uu))
            vals = slot_values(table, np.asarray(theta))
            curves = {k: v.reshape(np.shape(uu)) for k, v in vals.items()}
            freqs = frequencies(ll)
            want = 2.0 * np.log(curves["sigma"]) - LOG_2PI
            want = want - curves["d"] * freqs.half2
            for slot in table[2:]:
                a = slot.spec.sign * curves[slot.key]
                term = np.log1p(2.0 * a * freqs.coslam + a * a)
                want = want + term if slot.key == "ma1" else want - term
            got = log_density(table, curves, freqs)
            assert got.tobytes() == want.tobytes()


class TestLogSpectralGradient:
    def test_identity_link_d_slots_closed_form(self):
        model = lsfn_model()
        theta = [0.15, 0.20, 1.0, 0.0]
        for u, lam in ((0.2, 0.7), (0.8, 2.5), (0.5, np.pi)):
            grad = log_spectral_gradient_grid(model, theta, [u], [lam])[:, 0, 0]
            factor = np.log((2 * np.sin(lam / 2)) ** 2)
            npt.assert_allclose(grad[0], -factor, rtol=1e-12)
            npt.assert_allclose(grad[1], -u * factor, rtol=1e-12)

    def test_d_slots_vanish_where_memory_factor_is_one(self):
        model = lsfn_model()
        grad = log_spectral_gradient_grid(model, [0.15, 0.20, 1.0, 0.0],
                                          [0.4], [np.pi / 3])[:, 0, 0]
        npt.assert_allclose(grad[:2], 0.0, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        for model, draw in ((table_model(), feasible_table_theta),
                            (catalog_model("example5"), example5_theta)):
            for _ in range(100):
                theta = draw(model, rng)
                u = rng.uniform(0, 1)
                lam = rng.uniform(0.05, np.pi - 0.05)
                grad = log_spectral_gradient_grid(model, theta, [u],
                                                  [lam])[:, 0, 0]
                ref = fd_gradient(
                    lambda x: np.log(spectral_density(model, x, u, lam)),
                    theta)
                npt.assert_allclose(grad, ref, rtol=1e-5, atol=1e-7)

    def test_log_link_gradient(self):
        model = lsfn_model(d_link="log", s_link="log")
        theta = np.array([-1.5, 0.3, 0.1, -0.2])
        u, lam = 0.6, 1.1
        grad = log_spectral_gradient_grid(model, theta, [u], [lam])[:, 0, 0]
        ref = fd_gradient(
            lambda x: np.log(spectral_density(model, x, u, lam)), theta)
        npt.assert_allclose(grad, ref, rtol=1e-5, atol=1e-8)


class TestModelSpec:
    def test_param_names_and_slices(self):
        model = table_model()
        assert model.n_params == 5
        assert model.param_names() == (
            "alpha0", "alpha1", "beta0", "beta1", "theta1_0")
        sl = model.slices()
        assert sl["d"] == slice(0, 2)
        assert sl["sigma"] == slice(2, 4)
        assert sl["ma1"] == slice(4, 5)

    def test_make_params_checks_length(self):
        with pytest.raises(ValueError):
            table_model().make_params([0.1, 0.2])

    def test_make_params_checks_finite(self):
        with pytest.raises(ValueError):
            table_model().make_params([0.1, 0.2, np.nan, 0.1, 0.0])

    def test_at_most_one_arma_factor(self):
        with pytest.raises(ValueError):
            ModelSpec(d=CurveSpec(POLY0), sigma=CurveSpec(POLY0),
                      ma=(CurveSpec(POLY0), CurveSpec(POLY0)))

    def test_harmonic_requires_distinct_freqs(self):
        with pytest.raises(ValueError):
            BasisSpec("harmonic", freqs=(1.0, 1.0))
