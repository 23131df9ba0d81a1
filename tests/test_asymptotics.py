"""Fisher matrices (closed vs quadrature), standard errors, variance profiles."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from lswhittle import (BasisSpec, CurveSpec, InfeasibleParameterError,
                       ModelSpec, NotPositiveDefiniteError, asymptotics,
                       validate_params)
from lswhittle.tvmodel import ARMA_BOUND, D_HIGH, D_LOW

from oracles import einsum_gamma, quad_gram

PI2_6 = math.pi ** 2 / 6.0

FEASIBLE_POINTS = {
    "example2": [(0.15, 0.20, 0.5, 0.3), (0.40, -0.20, 1.0, -0.3)],
    "example3": [(-2.0, 0.5, 0.2, -0.3), (-1.5, -0.4, -0.1, 0.2)],
    "harmonic": [(0.25, 0.05, -0.04, 0.8), (0.30, -0.08, 0.02, 1.5)],
    "example5": [(0.30, 0.40, -0.50), (0.45, -0.30, 0.20)],
    "sec4": [(0.15, 0.20, 0.5, 0.3, 0.5), (0.20, 0.10, 1.0, -0.2, -0.4)],
}


class TestLambdaMesh:
    def test_integrates_log_kernels(self):
        # int_0^pi log(2 sin x/2) dx = 0 and
        # int_0^pi log^2(2 sin x/2) dx = pi^3/12 (classic log-sine values),
        # so the memory score has Fisher weight pi^2/6.
        x, w = asymptotics.lambda_mesh()
        logs = np.log(2.0 * np.sin(x / 2.0))
        assert abs(np.sum(w)) == pytest.approx(np.pi, rel=1e-14)
        assert abs(np.sum(w * logs)) < 1e-12
        assert np.sum(w * logs ** 2) == pytest.approx(np.pi ** 3 / 12.0,
                                                      rel=1e-12)
        fisher = 2.0 * np.sum(w * (2.0 * logs) ** 2) / (4.0 * np.pi)
        assert fisher == pytest.approx(PI2_6, rel=1e-12)

    def test_nodes_inside_domain(self):
        x, w = asymptotics.lambda_mesh()
        assert np.all((x > 0.0) & (x <= np.pi))
        assert np.all(w > 0.0)

    def test_mesh_is_read_only(self):
        for array in asymptotics.lambda_mesh():
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestFixedRules:
    def test_built_once_at_import(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        model = asymptotics.catalog_model("sec4")
        for _ in range(3):
            asymptotics.gamma_quadrature(model, FEASIBLE_POINTS["sec4"][0])
            asymptotics.gram_quadrature(BasisSpec("polynomial", degree=2))
        assert calls == []


def sample_theta(family, rng):
    """One feasible theta of a catalog family."""
    if family in ("example2", "sec4"):
        d0, d1 = rng.uniform(0.02, 0.48, size=2)
        b0, b1 = rng.uniform(0.2, 1.5), rng.uniform(0.05, 1.5)
        theta = (d0, d1 - d0, b0, b1 - b0)
        return theta + (rng.uniform(-0.9, 0.9),) if family == "sec4" else theta
    if family == "example3":
        d0, d1 = rng.uniform(0.02, 0.45, size=2)
        return (math.log(d0), math.log(d1 / d0), rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0))
    if family == "harmonic":
        return (rng.uniform(0.15, 0.35), rng.uniform(-0.05, 0.05),
                rng.uniform(-0.05, 0.05), rng.uniform(0.2, 2.0))
    return (rng.uniform(0.02, 0.48), rng.uniform(-0.9, 0.9),
            rng.uniform(-0.9, 0.9))


class TestBlockContraction:
    @pytest.mark.parametrize("family", asymptotics.CATALOG_IDS)
    def test_matches_full_grid_einsum(self, family):
        rng = np.random.default_rng(asymptotics.CATALOG_IDS.index(family))
        model = asymptotics.catalog_model(family)
        for _ in range(20):
            theta = sample_theta(family, rng)
            want = einsum_gamma(model, theta)
            got = asymptotics.gamma_quadrature(model, theta).matrix
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-13 * np.abs(want).max())

    def test_peak_memory_below_full_score_grid(self):
        model = asymptotics.catalog_model("sec4")
        theta = FEASIBLE_POINTS["sec4"][0]
        asymptotics.gamma_quadrature(model, theta)
        n_u, n_lam = len(asymptotics.U_RULE[0]), len(asymptotics.lambda_mesh()[0])
        tracemalloc.start()
        try:
            asymptotics.gamma_quadrature(model, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.n_params * n_u * n_lam * 8


# AR/MA zeros near lam = 0 or pi.  example5 leaves out a2 == a3, where the
# AR and MA factors cancel and Gamma is singular.
NEAR_UNIT_ROOT = (
    [pytest.param("sec4", (0.15, 0.20, 0.5, 0.3, vt), id=f"sec4-vt={vt}")
     for vt in (0.85, 0.9, 0.95, -0.85, -0.9, -0.95)]
    + [pytest.param("example5", (0.3, a2, a3), id=f"example5-a={a2},{a3}")
       for a2, a3 in ((0.95, -0.95), (-0.95, 0.95), (0.95, 0.3),
                      (-0.95, 0.3), (0.3, 0.95), (0.3, -0.95))])


def assert_quadrature_matches_closed(example_id, theta):
    closed = asymptotics.gamma_closed(example_id, theta)
    model = asymptotics.catalog_model(example_id)
    quadr = asymptotics.gamma_quadrature(model, theta)
    scale = np.abs(closed.matrix).max()
    np.testing.assert_allclose(quadr.matrix, closed.matrix,
                               atol=1e-8 * scale, rtol=1e-8)


class TestClosedVersusQuadrature:
    @pytest.mark.parametrize("example_id", sorted(FEASIBLE_POINTS))
    def test_families_agree(self, example_id):
        for theta in FEASIBLE_POINTS[example_id]:
            assert_quadrature_matches_closed(example_id, theta)

    @pytest.mark.parametrize("example_id,theta", NEAR_UNIT_ROOT)
    def test_families_agree_near_unit_root(self, example_id, theta):
        assert_quadrature_matches_closed(example_id, theta)

    def test_harmonic_custom_frequencies(self):
        freqs = (1.0, 2.5)
        theta = (0.25, 0.05, -0.04, 0.8)
        closed = asymptotics.gamma_closed("harmonic", theta, freqs)
        model = asymptotics.catalog_model("harmonic", freqs)
        quadr = asymptotics.gamma_quadrature(model, theta)
        np.testing.assert_allclose(quadr.matrix, closed.matrix, atol=1e-8,
                                   rtol=1e-8)

    def test_provenance_and_names(self):
        theta = (0.15, 0.20, 0.5, 0.3, 0.5)
        closed = asymptotics.gamma_closed("sec4", theta)
        model = asymptotics.catalog_model("sec4")
        quadr = asymptotics.gamma_quadrature(model, theta)
        assert closed.provenance == "sec4"
        assert quadr.provenance == "quadrature"
        assert closed.names == quadr.names == model.param_names()
        # equal models share one names tuple, so retained results do too
        assert model.param_names() is asymptotics.catalog_model("sec4").param_names()
        assert closed.names is asymptotics.gamma_closed("sec4", theta).names


def assert_exact_matches_quadrature(model, theta):
    exact = asymptotics.gamma_exact(model, theta).matrix
    quadr = asymptotics.gamma_quadrature(model, theta).matrix
    np.testing.assert_array_equal(exact, exact.T)
    np.testing.assert_allclose(exact, quadr, rtol=0.0,
                               atol=1e-13 * np.abs(quadr).max())


POLY1 = BasisSpec("polynomial", degree=1)
CONST = BasisSpec("polynomial", degree=0)
SLOPE = BasisSpec("polynomial", degree=1, intercept=False)

# Models outside the catalog, each with two feasible theta.
OUTSIDE_CATALOG = {
    "quadratic-d": (
        ModelSpec(d=CurveSpec(BasisSpec("polynomial", degree=2)),
                  sigma=CurveSpec(POLY1)),
        [(0.1, 0.5, -0.4, 0.8, 0.2), (0.3, -0.3, 0.2, 1.2, -0.5)]),
    "log-sigma-slope": (
        ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1, link="log")),
        [(0.2, 0.1, -0.3, 0.8), (0.4, -0.3, 0.5, -1.5)]),
    "ar-slope-ma-const": (
        ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(CONST),
                  ar=(CurveSpec(SLOPE),), ma=(CurveSpec(CONST, sign=-1),)),
        [(0.15, 0.2, 0.7, 0.6, 0.4), (0.3, -0.1, 1.3, -0.9, -0.8)]),
    "harmonic-d-ar": (
        ModelSpec(d=CurveSpec(BasisSpec("harmonic", freqs=(1.0, 2.0))),
                  sigma=CurveSpec(CONST), ar=(CurveSpec(CONST, sign=-1),)),
        [(0.25, 0.05, -0.04, 0.8, 0.6), (0.3, -0.08, 0.02, 1.5, -0.9)]),
    "log-ma-slope": (
        ModelSpec(d=CurveSpec(POLY1), sigma=CurveSpec(POLY1),
                  ma=(CurveSpec(POLY1, link="log", sign=-1),)),
        [(0.2, 0.1, 0.5, 0.3, -1.0, 0.8), (0.1, 0.3, 1.0, -0.5, -0.2, -2.0)]),
}


class TestExactVersusQuadrature:
    """gamma_exact (closed-form lam integrals) against the quadrature."""

    @pytest.mark.parametrize("family", asymptotics.CATALOG_IDS)
    def test_catalog_families(self, family):
        rng = np.random.default_rng(100 + asymptotics.CATALOG_IDS.index(family))
        model = asymptotics.catalog_model(family)
        for _ in range(20):
            assert_exact_matches_quadrature(model, sample_theta(family, rng))

    @pytest.mark.parametrize("example_id,theta", NEAR_UNIT_ROOT)
    def test_near_unit_root(self, example_id, theta):
        assert_exact_matches_quadrature(asymptotics.catalog_model(example_id),
                                        theta)

    @pytest.mark.parametrize("name", sorted(OUTSIDE_CATALOG))
    def test_models_outside_catalog(self, name):
        model, thetas = OUTSIDE_CATALOG[name]
        for theta in thetas:
            assert_exact_matches_quadrature(model, theta)

    # slopes just above 1e-3, where a closed form in u that switches from
    # a series to log(1 + a) expressions loses digits to cancellation
    @pytest.mark.parametrize("theta", [(0.3, 0.0012, -0.5), (0.3, 0.4, 0.0015),
                                       (0.3, -0.0011, 0.002)])
    def test_example5_closed_matches_quadrature(self, theta):
        closed = asymptotics.gamma_closed("example5", theta).matrix
        quadr = asymptotics.gamma_quadrature(
            asymptotics.catalog_model("example5"), theta).matrix
        np.testing.assert_allclose(closed, quadr, rtol=0.0,
                                   atol=1e-13 * np.abs(quadr).max())

    def test_closed_is_exact_on_catalog_model(self):
        theta = (0.15, 0.20, 0.5, 0.3, 0.5)
        model = asymptotics.catalog_model("sec4")
        exact = asymptotics.gamma_exact(model, theta)
        closed = asymptotics.gamma_closed("sec4", theta)
        np.testing.assert_array_equal(exact.matrix, closed.matrix)
        assert (exact.provenance, closed.provenance) == ("exact", "sec4")
        assert exact.names is closed.names

    def test_curve_beyond_degree_one_checked_on_grid(self):
        # d(u) = 0.3 + 0.8 u - 0.8 u^2 is 0.3 at both ends but 0.5 at u = 1/2
        model = OUTSIDE_CATALOG["quadratic-d"][0]
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_exact(model, (0.3, 0.8, -0.8, 0.8, 0.2))

    def test_log_link_scale_block_is_free_of_scale(self):
        # sigma = exp(500 + 0.1 u) overflows when squared, but its score
        # 2 (1, u) does not depend on sigma; +-800 is beyond the link's
        # +-700 clamp, where exp no longer follows eta
        for b0 in (0.2, 500.0, -500.0, 800.0, -800.0):
            mat = asymptotics.gamma_closed("example3", (-2.0, 0.5, b0, 0.1)).matrix
            np.testing.assert_allclose(mat[2:, 2:], [[2.0, 1.0], [1.0, 2.0 / 3.0]],
                                       rtol=1e-15)

    def test_refuses_scale_that_changes_sign(self):
        # sigma(u) = 0.5 - 0.6 u ends at -0.1
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("example2", (0.15, 0.2, 0.5, -0.6))

    def test_refuses_factor_outside_unit_box(self):
        model = OUTSIDE_CATALOG["ar-slope-ma-const"][0]
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_exact(model, (0.15, 0.2, 0.7, 1.0, 0.4))
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_exact(model, (0.15, 0.2, 0.7, 0.6, -1.0))


class TestClosedFormEntries:
    def test_polynomial_memory_block(self):
        # (pi^2/6) * Hilbert moment matrix for identity links.
        mat = asymptotics.gamma_closed("example2", (0.15, 0.2, 0.5, 0.3)).matrix
        want = PI2_6 * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        np.testing.assert_allclose(mat[:2, :2], want, rtol=1e-15)
        assert np.all(mat[:2, 2:] == 0.0)  # memory/scale scores orthogonal

    def test_scale_block_against_quadrature_oracle(self):
        b0, b1 = 0.5, 0.3
        mat = asymptotics.gamma_closed("example2", (0.15, 0.2, b0, b1)).matrix
        for m in range(3):
            want, _ = quad(lambda u, m=m: 2.0 * u ** m / (b0 + b1 * u) ** 2,
                           0.0, 1.0)
            i, j = (2, 2) if m == 0 else ((2, 3) if m == 1 else (3, 3))
            assert mat[i, j] == pytest.approx(want, rel=1e-11)

    def test_log_link_scale_block_is_constant(self):
        # log-link scale scores are 2 (1, u), so the block is
        # [[2, 1], [1, 2/3]] independent of the parameters.
        for theta in FEASIBLE_POINTS["example3"]:
            mat = asymptotics.gamma_closed("example3", theta).matrix
            np.testing.assert_allclose(
                mat[2:, 2:], [[2.0, 1.0], [1.0, 2.0 / 3.0]], rtol=1e-15)

    def test_log_link_memory_block_oracle(self):
        a0, a1 = -2.0, 0.5
        mat = asymptotics.gamma_closed("example3", (a0, a1, 0.2, -0.3)).matrix
        for m in range(3):
            want, _ = quad(
                lambda u, m=m: PI2_6 * u ** m * np.exp(2 * (a0 + a1 * u)),
                0.0, 1.0)
            i, j = (0, 0) if m == 0 else ((0, 1) if m == 1 else (1, 1))
            assert mat[i, j] == pytest.approx(want, rel=1e-11)

    def test_slope_only_memory_entry(self):
        # (pi^2/6) int_0^1 u^2 du = pi^2/18.
        mat = asymptotics.gamma_closed("example5", (0.3, 0.4, -0.5)).matrix
        assert mat[0, 0] == pytest.approx(np.pi ** 2 / 18.0, rel=1e-15)

    def test_ma_cross_terms(self):
        # cross entries log(1 - vt)/vt * (1, 1/2) at vt = 0.5.
        mat = asymptotics.gamma_closed("sec4", (0.15, 0.2, 0.5, 0.3, 0.5)).matrix
        c = math.log(0.5) / 0.5
        assert mat[0, 4] == pytest.approx(c, rel=1e-15)
        assert mat[1, 4] == pytest.approx(c / 2.0, rel=1e-15)
        assert mat[4, 4] == pytest.approx(1.0 / 0.75, rel=1e-15)
        assert np.all(mat[2:4, 4] == 0.0)

    def test_ma_cross_terms_vanish_at_zero(self):
        mat = asymptotics.gamma_closed("sec4", (0.2, 0.1, 1.0, 0.0, 0.0)).matrix
        assert mat[0, 4] == pytest.approx(-1.0, rel=1e-8)
        assert mat[4, 4] == pytest.approx(1.0, rel=1e-15)

    def test_harmonic_memory_block_oracle(self):
        freqs = (1.0, 2.0)
        basis = BasisSpec("harmonic", freqs=freqs)
        mat = asymptotics.gamma_closed("harmonic", (0.25, 0.05, -0.04, 0.8),
                                       freqs).matrix
        for i in range(3):
            for j in range(3):
                want = PI2_6 * quad_gram(basis, i, j)
                assert mat[i, j] == pytest.approx(want, rel=1e-10)
        assert mat[3, 3] == pytest.approx(2.0 / 0.8 ** 2, rel=1e-15)


class TestDomainRejections:
    def test_memory_endpoint_out_of_range(self):
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("example2", (0.3, 0.25, 0.5, 0.3))
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("example3", (0.1, 0.5, 0.2, 0.1))
        # a harmonic d(u) is checked on the validation grid, as the
        # quadrature checks it on its mesh
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("harmonic", (5.0, 0.0, 0.0, 1.0))
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("harmonic", (0.25, 0.3, 0.0, 1.0))

    def test_slope_family_domain(self):
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("example5", (0.0, 0.4, 0.2))
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("example5", (0.3, 1.0, 0.2))

    def test_ma_box(self):
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("sec4", (0.15, 0.2, 0.5, 0.3, 1.0))

    def test_nonpositive_scale(self):
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_closed("harmonic", (0.25, 0.05, -0.04, 0.0))

    def test_quadrature_rejects_infeasible_curve(self):
        model = asymptotics.catalog_model("example2")
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_quadrature(model, (0.3, 0.25, 0.5, 0.3))
        with pytest.raises(InfeasibleParameterError):
            asymptotics.gamma_quadrature(model, (0.15, 0.2, -0.5, 0.3))

    # a2 == a3: the AR and MA factors of example5 cancel, so theta is not
    # identified and Gamma is singular up to rounding
    @pytest.mark.parametrize("theta", [(0.3, 0.5, 0.5), (0.3, 0.95, 0.95),
                                       (0.3, -0.95, -0.95)])
    def test_singular_gamma_refused_by_both_routes(self, theta):
        with pytest.raises(NotPositiveDefiniteError):
            asymptotics.gamma_closed("example5", theta)
        with pytest.raises(NotPositiveDefiniteError):
            asymptotics.gamma_quadrature(asymptotics.catalog_model("example5"),
                                         theta)

    def test_nearly_singular_gamma_accepted_by_both_routes(self):
        # smallest over largest eigenvalue 1.3e-9, above the 1e-12 floor
        theta = (0.3, 0.5, 0.5001)
        closed = asymptotics.gamma_closed("example5", theta).matrix
        quadr = asymptotics.gamma_quadrature(
            asymptotics.catalog_model("example5"), theta).matrix
        for mat in (closed, quadr):
            eig = np.linalg.eigvalsh(mat)
            assert 1e-10 < eig[0] / eig[-1] < 1e-8

    def test_gamma_refuses_d_between_box_and_domain(self):
        # d in (D_HIGH, 1/2) or (0, D_LOW) is inside the spectral domain but
        # outside the one feasible box, which every route reads
        model = asymptotics.catalog_model("example2")
        for theta in ((0.2, 0.2995, 0.5, 0.3), (0.0005, 0.2, 0.5, 0.3)):
            for route in (asymptotics.gamma_exact,
                          asymptotics.gamma_quadrature):
                with pytest.raises(InfeasibleParameterError):
                    route(model, theta)

    def test_gamma_refuses_curve_outside_box_at_its_nodes(self):
        # d(u) = 0.1 + 0.3 cos(200 pi u) is 0.4 on the validation grid but
        # below 0 at nodes of the u rule, where both routes evaluate it
        model = ModelSpec(
            d=CurveSpec(BasisSpec("harmonic", freqs=(200.0 * np.pi,))),
            sigma=CurveSpec(BasisSpec("polynomial")))
        for route in (asymptotics.gamma_exact, asymptotics.gamma_quadrature):
            with pytest.raises(InfeasibleParameterError):
                route(model, (0.1, 0.3, 1.0))

    def test_unknown_catalog_id(self):
        with pytest.raises(ValueError):
            asymptotics.catalog_model("example9")
        with pytest.raises(ValueError):
            asymptotics.gamma_closed("example9", (0.1,))


class TestStandardErrors:
    def test_matches_direct_inverse(self):
        gamma = asymptotics.gamma_closed("sec4", (0.15, 0.2, 0.5, 0.3, 0.5))
        report = asymptotics.asymptotic_se(gamma, 512)
        want = np.sqrt(np.diag(np.linalg.inv(gamma.matrix)) / 512.0)
        np.testing.assert_allclose(report.sd, want, rtol=1e-12)
        assert report.T == 512
        assert report.names == gamma.names

    def test_inverse_square_root_scaling(self):
        gamma = asymptotics.gamma_closed("example2", (0.15, 0.2, 0.5, 0.3))
        sd1 = asymptotics.asymptotic_se(gamma, 256).sd
        sd2 = asymptotics.asymptotic_se(gamma, 1024).sd
        np.testing.assert_allclose(sd2, sd1 / 2.0, rtol=1e-14)

    def test_rejects_bad_length(self):
        gamma = asymptotics.gamma_closed("example2", (0.15, 0.2, 0.5, 0.3))
        with pytest.raises(ValueError):
            asymptotics.asymptotic_se(gamma, 0)

    def test_singular_matrix_rejected(self):
        bad = asymptotics.GammaMatrix(
            matrix=np.array([[1.0, 1.0], [1.0, 1.0]]), provenance="quadrature",
            theta=np.zeros(2), names=("a", "b"))
        with pytest.raises(NotPositiveDefiniteError):
            asymptotics.asymptotic_se(bad, 100)


class TestVarianceProfiles:
    def test_gram_closed_matches_quadrature_oracle(self):
        bases = [BasisSpec("polynomial", d) for d in range(1, 6)]
        bases.append(BasisSpec("harmonic", freqs=(1.0, 2.0, 3.5)))
        bases.append(BasisSpec("polynomial", 3, intercept=False))
        for basis in bases:
            closed = asymptotics.gram_closed(basis)
            for i in range(basis.size):
                for j in range(basis.size):
                    assert closed[i, j] == pytest.approx(
                        quad_gram(basis, i, j), abs=1e-12), (basis, i, j)

    def test_linear_profile_closed_form(self):
        # for the linear memory curve the pointwise profile is
        # (24/pi^2)(1 - 3u + 3u^2): inverse of the 2x2 Hilbert block.
        basis = BasisSpec("polynomial", 1)
        u = np.linspace(0.0, 1.0, 11)
        got = asymptotics.dhat_variance_profile(
            asymptotics.gamma_d_block(basis), basis, u)
        want = (24.0 / np.pi ** 2) * (1.0 - 3.0 * u + 3.0 * u ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_profile_average_is_dimension_over_weight(self):
        # int_0^1 g' Gamma^{-1} g du = trace(Gamma^{-1} Gram)
        # = (6/pi^2) p for every p-function basis.
        # degree-5 involves a condition-1e7 Hilbert block, so ask for 1e-8
        for basis in (BasisSpec("polynomial", 2),
                      BasisSpec("polynomial", 5),
                      BasisSpec("harmonic", freqs=(1.0, 2.0, 3.0))):
            got = asymptotics.average_variance_check(basis)
            assert got == pytest.approx(6.0 * basis.size / np.pi ** 2,
                                        rel=1e-8)

    def test_profile_accepts_raw_matrix_and_rejects_singular(self):
        basis = BasisSpec("polynomial", 1)
        raw = asymptotics.gamma_d_block(basis)
        wrapped = asymptotics.GammaMatrix(matrix=raw, provenance="example2",
                                          theta=np.zeros(2), names=("a", "b"))
        u = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            asymptotics.dhat_variance_profile(raw, basis, u),
            asymptotics.dhat_variance_profile(wrapped, basis, u))
        with pytest.raises(NotPositiveDefiniteError):
            asymptotics.dhat_variance_profile(
                np.array([[1.0, 1.0], [1.0, 1.0]]), basis, u)


class TestCsvOutputs:
    def test_gamma_csv(self, tmp_path):
        gamma = asymptotics.gamma_closed("example2", (0.15, 0.2, 0.5, 0.3))
        path = tmp_path / "gamma.csv"
        asymptotics.write_gamma_csv(gamma, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "param," + ",".join(gamma.names)
        assert len(lines) == 5
        row = lines[1].split(",")
        assert row[0] == gamma.names[0]
        np.testing.assert_allclose([float(v) for v in row[1:]],
                                   gamma.matrix[0], rtol=0)


def pushed_to(model, theta, key, value):
    """theta with curve ``key`` moved, by its first coefficient, until its
    value nearest to ``value`` on a 101-point grid equals it.  With an
    intercept the move is a shift, so that value is the curve's extreme."""
    spec, index = dict(model.curves())[key], model.slices()[key]
    design = spec.basis.design_matrix(np.linspace(0.0, 1.0, 101))
    design = design[design[:, 0] != 0.0]
    eta = design @ theta[index]
    target = np.log(value) if spec.link == "log" else value
    i = np.argmin(np.abs(eta - target))
    theta = theta.copy()
    theta[index.start] += (target - eta[i]) / design[i, 0]
    return theta


def gamma_refusal(route, model, theta) -> bool:
    try:
        route(model, theta)
    except InfeasibleParameterError:
        return True
    except NotPositiveDefiniteError:
        pass
    return False


ALL_MODELS = (
    [pytest.param(asymptotics.catalog_model(f), FEASIBLE_POINTS[f][0], id=f)
     for f in asymptotics.CATALOG_IDS]
    + [pytest.param(model, thetas[0], id=name)
       for name, (model, thetas) in sorted(OUTSIDE_CATALOG.items())])


@pytest.mark.parametrize("model,centre", ALL_MODELS)
def test_one_feasible_set(model, centre):
    # validate_params, gamma_exact and gamma_quadrature accept the same theta
    rng = np.random.default_rng(len(centre))
    centre = np.asarray(centre, dtype=float)
    arma = [key for key, _ in model.curves()[2:]]
    verdicts = []
    for k in range(40):
        theta = centre + rng.normal(0.0, 0.1, len(centre)) * np.maximum(
            np.abs(centre), 0.5)
        if k % 4 == 1:
            theta = pushed_to(model, theta, "d", rng.uniform(D_HIGH, 0.5))
        elif k % 4 == 2:
            theta = pushed_to(model, theta, "d", rng.uniform(0.0, D_LOW))
        elif k % 4 == 3 and arma:
            key = arma[0]
            sign = 1.0 if dict(model.curves())[key].link == "log" \
                else rng.choice((-1.0, 1.0))
            theta = pushed_to(model, theta, key,
                              sign * rng.uniform(ARMA_BOUND, 1.0))
        infeasible = not validate_params(model, theta).feasible
        assert gamma_refusal(asymptotics.gamma_exact, model, theta) \
            == infeasible, theta
        assert gamma_refusal(asymptotics.gamma_quadrature, model, theta) \
            == infeasible, theta
        verdicts.append(infeasible)
    assert 0 < sum(verdicts) < len(verdicts)
