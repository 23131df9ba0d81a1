"""Fisher matrices (closed vs quadrature), standard errors, variance profiles."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from lswhittle import (BasisSpec, InfeasibleParameterError, ModelSpec,
                       NotPositiveDefiniteError, asymptotics)

from oracles import quad_gram

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


class TestClosedVersusQuadrature:
    @pytest.mark.parametrize("example_id", sorted(FEASIBLE_POINTS))
    def test_families_agree(self, example_id):
        for theta in FEASIBLE_POINTS[example_id]:
            closed = asymptotics.gamma_closed(example_id, theta)
            model = asymptotics.catalog_model(example_id)
            quadr = asymptotics.gamma_quadrature(model, theta)
            scale = np.abs(closed.matrix).max()
            np.testing.assert_allclose(quadr.matrix, closed.matrix,
                                       atol=1e-8 * scale, rtol=1e-8)

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


class TestHelperIntegrals:
    def test_exp_moment_matches_quadrature(self):
        for c in (-2.0, -0.011, -0.009, 0.0, 0.009, 0.011, 3.0):
            for m in range(3):
                want, _ = quad(lambda u: u ** m * np.exp(c * u), 0.0, 1.0)
                got = asymptotics._poly_exp_moment(m, c)
                assert got == pytest.approx(want, rel=1e-11), (m, c)

    def test_invsq_moment_matches_quadrature(self):
        for a, b in ((0.5, 0.3), (1.0, -0.009), (1.0, 0.011), (2.0, -1.5)):
            for m in range(3):
                want, _ = quad(lambda u: u ** m / (a + b * u) ** 2, 0.0, 1.0)
                got = asymptotics._poly_invsq_moment(m, a, b)
                assert got == pytest.approx(want, rel=1e-10), (m, a, b)

    def test_invsq_moment_rejects_sign_change(self):
        with pytest.raises(InfeasibleParameterError):
            asymptotics._poly_invsq_moment(0, 0.5, -0.6)

    def test_arma_moment_matches_quadrature(self):
        for x in (-0.5, -0.0011, -0.0009, 0.0009, 0.0011, 0.5, 0.99):
            want, _ = quad(lambda u: u * u / (1.0 - x * u * u), 0.0, 1.0)
            assert asymptotics._i_int(x) == pytest.approx(want, rel=1e-10), x

    def test_cross_moment_series_guard_continuous(self):
        # Series branch (|a| < 1e-3) and closed form meet smoothly.
        for a in (9e-4, -9e-4):
            k = np.arange(9)
            series = float(np.sum((-a) ** k / ((k + 1) * (k + 3))))
            assert asymptotics._j_int(a) == pytest.approx(series, rel=1e-12)
        step = asymptotics._j_int(1.001e-3) - asymptotics._j_int(0.999e-3)
        assert abs(step) < 1e-6

    def test_log_ratio_series_guard_continuous(self):
        # the function's slope at 0 is -1/2, so the true change over the
        # 2e-11-wide straddle is ~1e-11; anything near that is continuous
        lo = asymptotics._log_ratio(0.999e-8)
        hi = asymptotics._log_ratio(1.001e-8)
        assert abs(hi - lo) < 1e-10
        assert asymptotics._log_ratio(0.0) == pytest.approx(-1.0)


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

    def test_se_csv(self, tmp_path):
        gamma = asymptotics.gamma_closed("example2", (0.15, 0.2, 0.5, 0.3))
        report = asymptotics.asymptotic_se(gamma, 512)
        path = tmp_path / "se.csv"
        asymptotics.write_se_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "param,sd"
        assert len(lines) == 5
        name, sd = lines[-1].split(",")
        assert name == report.names[-1]
        assert float(sd) == report.sd[-1]
