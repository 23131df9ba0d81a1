"""Asymptotic Fisher matrix, standard errors, and variance profiles.

The estimator's limit covariance is the inverse of

    Gamma(theta) = (1/4 pi) int_0^1 int_{-pi}^{pi}
                   [grad log f(u, lam)] [grad log f(u, lam)]' dlam du

computed here two independent ways: tensor Gauss-Legendre quadrature with a
dyadically graded frequency mesh (the integrand has an integrable log^2
singularity at lam = 0), and a catalog of closed forms for the standard
model families.  Standard errors follow as sqrt(diag(Gamma^{-1}) / T).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InfeasibleParameterError, NotPositiveDefiniteError
from .tvmodel import (VALIDATION_GRID, BasisSpec, CurveSpec, ModelSpec,
                      curve_values, eval_curve, log_spectral_gradient_grid,
                      theta_values)

PI2_6 = np.pi ** 2 / 6.0


def _gl_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def lambda_mesh(n_nodes: int = 24, n_refine: int = 48):
    """Graded Gauss-Legendre mesh on (0, pi] concentrating toward 0.

    Panels [pi/2^{k+1}, pi/2^k] for k = 0..n_refine-1 plus a final stub
    [0, pi/2^n_refine]; the geometric grading tames the log^2 blow-up of
    the score at frequency zero.  With the defaults the mesh integrates
    log(2 sin lam/2)^2 kernels to ~1e-12 absolute.
    """
    nodes, weights = [], []
    hi = np.pi
    for _ in range(n_refine):
        lo = hi / 2.0
        x, w = _gl_nodes(lo, hi, n_nodes)
        nodes.append(x)
        weights.append(w)
        hi = lo
    x, w = _gl_nodes(0.0, hi, n_nodes)
    nodes.append(x)
    weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class GammaMatrix:
    """Fisher matrix with its provenance ("quadrature" or a catalog id)."""

    matrix: np.ndarray
    provenance: str
    theta: np.ndarray
    names: tuple


def _check_spd(mat: np.ndarray, what: str):
    try:
        return cho_factor(mat, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite: {exc}") from exc


def gamma_quadrature(model: ModelSpec, theta, n_u: int = 64,
                     n_lam: int = 24, n_refine: int = 48) -> GammaMatrix:
    """Fisher matrix by tensor quadrature over u in (0,1), lam in (0,pi].

    Feasibility is checked at the interior u-nodes only (a curve may touch
    the constraint boundary at an endpoint of [0,1] and still give a
    finite integral).
    """
    values = theta_values(model, theta)
    xu, wu = _gl_nodes(0.0, 1.0, n_u)
    vals = curve_values(model, values, xu)
    if np.any(vals["d"] <= 0.0) or np.any(vals["d"] >= 0.5):
        raise InfeasibleParameterError("d(u) leaves (0, 1/2) on the quadrature mesh")
    if np.any(vals["sigma"] <= 0.0):
        raise InfeasibleParameterError("sigma(u) is not strictly positive")
    for key in vals:
        if key.startswith(("ar", "ma")) and np.any(np.abs(vals[key]) >= 1.0):
            raise InfeasibleParameterError(f"|{key}(u)| reaches 1 on the mesh")
    xl, wl = lambda_mesh(n_lam, n_refine)
    grad = log_spectral_gradient_grid(model, values, xu, xl)
    # factor 2: the integrand is even in lam, so (0, pi] is doubled
    gamma = np.einsum("a,b,iab,jab->ij", wu, 2.0 * wl, grad, grad) / (4.0 * np.pi)
    gamma = 0.5 * (gamma + gamma.T)
    _check_spd(gamma, "quadrature Fisher matrix")
    return GammaMatrix(matrix=gamma, provenance="quadrature",
                       theta=values.copy(), names=model.param_names())


# ---------------------------------------------------------------------------
# Closed-form catalog
#
# Catalog ids name fixed model shapes (these are also the shapes built by
# catalog_model):
#   example2  d = a0 + a1 u and sigma = b0 + b1 u, identity links
#   example3  d = exp(a0 + a1 u) and sigma = exp(b0 + b1 u), log links
#   harmonic  d = a0 + sum_j a_j cos(w_j u) (identity), constant sigma = b0
#   example5  d = a1 u, AR factor (1 + a2 u B), MA factor (1 + a3 u B),
#             sigma fixed at 1
#   sec4      d = a0 + a1 u, sigma = b0 + b1 u, MA factor (1 - vt B); the
#             Monte Carlo family of the tables
# ---------------------------------------------------------------------------

CATALOG_IDS = ("example2", "example3", "harmonic", "example5", "sec4")


_FACTORIALS = np.array([math.factorial(k) for k in range(18)], dtype=float)


def _poly_exp_moment(m: int, c: float) -> float:
    """int_0^1 u^m e^{c u} du for m in {0, 1, 2}, stable near c = 0.

    The series window extends to |c| < 1/4 because the closed form for
    m = 2 loses ~5 digits to cancellation at small c.
    """
    if abs(c) < 0.25:
        k = np.arange(18)
        return float(np.sum(c ** k / (_FACTORIALS[k] * (k + m + 1))))
    e = np.exp(c)
    if m == 0:
        return float(np.expm1(c) / c)
    if m == 1:
        return float(((c - 1.0) * e + 1.0) / c ** 2)
    return float(((c * c - 2.0 * c + 2.0) * e - 2.0) / c ** 3)


def _poly_invsq_moment(m: int, a: float, b: float) -> float:
    """int_0^1 u^m / (a + b u)^2 du for m in {0, 1, 2}; needs a, a+b > 0."""
    if a <= 0.0 or a + b <= 0.0:
        raise InfeasibleParameterError("sigma(u) = a + b u must stay positive")
    t = b / a
    if abs(t) < 1e-2:
        k = np.arange(13)
        return float(np.sum((k + 1) * (-t) ** k / (k + m + 1)) / a ** 2)
    if m == 0:
        return float(1.0 / (a * (a + b)))
    if m == 1:
        return float((np.log1p(t) + 1.0 / (1.0 + t) - 1.0) / b ** 2)
    return float((b - 2.0 * a * np.log1p(t) + b / (1.0 + t)) / b ** 3)


def _i_int(x: float) -> float:
    """int_0^1 u^2 / (1 - x u^2) du, branching at x = 0; needs x < 1."""
    if x >= 1.0:
        raise InfeasibleParameterError("ARMA product leaves the unit box")
    if abs(x) < 1e-3:
        k = np.arange(9)
        return float(np.sum(x ** k / (2 * k + 3)))
    if x > 0.0:
        r = np.sqrt(x)
        return float(np.arctanh(r) / (x * r) - 1.0 / x)
    r = np.sqrt(-x)
    return float(-1.0 / x - np.arctan(r) / (-x * r))


def _j_int(a: float) -> float:
    """int_0^1 u * ell(a u) du with ell the log-kernel cross moment.

    Closed form ((1 - a^{-2}) log(1+a) - 1/2 + 1/a) / (2a); series
    sum (-1)^k a^k / ((k+1)(k+3)) near zero.  Needs a > -1.
    """
    if a <= -1.0:
        raise InfeasibleParameterError("ARMA coefficient reaches -1")
    if abs(a) < 1e-3:
        k = np.arange(9)
        return float(np.sum((-a) ** k / ((k + 1) * (k + 3))))
    return float(((1.0 - 1.0 / a ** 2) * np.log1p(a) - 0.5 + 1.0 / a) / (2.0 * a))


def _log_ratio(vt: float) -> float:
    """log(1 - vt)/vt with its limit -1 at vt = 0."""
    if abs(vt) < 1e-8:
        return -1.0 - 0.5 * vt
    return float(np.log1p(-vt) / vt)


def catalog_model(example_id: str, freqs=(1.0, 2.0)) -> ModelSpec:
    """ModelSpec matching each closed-form catalog entry."""
    poly1 = BasisSpec("polynomial", degree=1)
    if example_id == "example2":
        return ModelSpec(d=CurveSpec(poly1), sigma=CurveSpec(poly1))
    if example_id == "example3":
        return ModelSpec(d=CurveSpec(poly1, link="log"),
                         sigma=CurveSpec(poly1, link="log"))
    if example_id == "harmonic":
        return ModelSpec(
            d=CurveSpec(BasisSpec("harmonic", freqs=tuple(freqs))),
            sigma=CurveSpec(BasisSpec("polynomial", degree=0)),
        )
    if example_id == "example5":
        slope = BasisSpec("polynomial", degree=1, intercept=False)
        fixed_unit = CurveSpec(BasisSpec("polynomial", degree=0,
                                         intercept=False), link="log")
        return ModelSpec(d=CurveSpec(slope), sigma=fixed_unit,
                         ar=(CurveSpec(slope, sign=1),),
                         ma=(CurveSpec(slope, sign=1),))
    if example_id == "sec4":
        const = BasisSpec("polynomial", degree=0)
        return ModelSpec(d=CurveSpec(poly1), sigma=CurveSpec(poly1),
                         ma=(CurveSpec(const, sign=-1),))
    raise ValueError(f"unknown catalog id {example_id!r}")


def gamma_closed(example_id: str, theta, freqs=(1.0, 2.0)) -> GammaMatrix:
    """Closed-form Fisher matrix for one catalog family, assembled by curve.

    The memory kernel integrates to zero over lam, so the d and sigma
    blocks are orthogonal and each depends on its own curve alone; only
    the AR/MA rows couple to d, and they are the one family-specific part.
    Raises InfeasibleParameterError when theta leaves the formula's domain
    (memory curve outside (0, 1/2), nonpositive scale, ARMA box violated).
    """
    model = catalog_model(example_id, freqs)
    values = theta_values(model, theta)
    sl = model.slices()
    mat = np.zeros((len(values), len(values)))
    mat[sl["d"], sl["d"]] = _d_block(model.d, values[sl["d"]])
    mat[sl["sigma"], sl["sigma"]] = _sigma_block(model.sigma, values[sl["sigma"]])
    if example_id == "example5":
        _, a2, a3 = values
        if abs(a2) >= 1.0 or abs(a3) >= 1.0:
            raise InfeasibleParameterError("ARMA slopes must lie in (-1, 1)")
        mat[0, 1:] = mat[1:, 0] = -_j_int(a2), _j_int(a3)
        mat[1:, 1:] = [[_i_int(a2 * a2), -_i_int(a2 * a3)],
                       [-_i_int(a2 * a3), _i_int(a3 * a3)]]
    elif example_id == "sec4":
        (vt,) = values[sl["ma1"]]
        if abs(vt) >= 1.0:
            raise InfeasibleParameterError("MA coefficient must lie in (-1, 1)")
        mat[:2, 4] = mat[4, :2] = _log_ratio(vt) * np.array([1.0, 0.5])
        mat[4, 4] = 1.0 / (1.0 - vt * vt)
    return GammaMatrix(matrix=mat, provenance=example_id,
                       theta=values.copy(), names=model.param_names())


def _moments(moment, p: int) -> np.ndarray:
    """The p x p matrix [moment(i + j)]."""
    return np.array([[moment(i + j) for j in range(p)] for i in range(p)])


def _d_block(spec: CurveSpec, coeffs: np.ndarray) -> np.ndarray:
    """Memory block; d(u) must lie in (0, 1/2).

    A polynomial d(u) is checked at its free ends, any other curve on the
    VALIDATION_GRID points of [0, 1].  Identity link: (pi^2/6) Gram,
    theta-free.  Log link (linear exponent): (pi^2/6) int u^{i+j}
    exp(2 eta(u)) du.
    """
    if spec.basis.kind == "polynomial":
        eta = [coeffs.sum()]  # at u = 1
        if spec.basis.intercept:  # at u = 0; without one, d(0) = 0 is pinned
            eta.append(coeffs[0])
        for v in eta if spec.link == "identity" else map(np.exp, eta):
            if not 0.0 < v < 0.5:
                raise InfeasibleParameterError(
                    f"memory curve endpoint {v:.6g} outside (0, 1/2)")
    else:
        d = eval_curve(spec, coeffs, np.linspace(0.0, 1.0, VALIDATION_GRID))
        if not np.all((d > 0.0) & (d < 0.5)):
            raise InfeasibleParameterError(
                "d(u) leaves (0, 1/2) on the validation grid")
    if spec.link == "identity":
        return gamma_d_block(spec.basis)
    a0, a1 = coeffs
    block = _moments(lambda m: _poly_exp_moment(m, 2.0 * a1), 2)
    return PI2_6 * np.exp(2.0 * a0) * block


def _sigma_block(spec: CurveSpec, coeffs: np.ndarray) -> np.ndarray:
    """Scale block: 2 Gram under a log link; under the identity link
    2 int u^{i+j} / sigma(u)^2 du for a constant or linear sigma."""
    if spec.link == "log":
        return 2.0 * gram_closed(spec.basis)
    b0, b1 = coeffs if len(coeffs) == 2 else (coeffs[0], 0.0)
    return 2.0 * _moments(lambda m: _poly_invsq_moment(m, b0, b1), len(coeffs))


@dataclass(frozen=True)
class SEReport:
    """Per-parameter asymptotic standard deviations sqrt(diag(Gamma^-1)/T)."""

    sd: np.ndarray
    T: int
    provenance: str
    names: tuple


def asymptotic_se(gamma: GammaMatrix, T: int) -> SEReport:
    if T < 1:
        raise ValueError("T must be >= 1")
    mat = gamma.matrix
    factor = _check_spd(mat, "Fisher matrix")
    inv = cho_solve(factor, np.eye(len(mat)), check_finite=False)
    return SEReport(sd=np.sqrt(np.diag(inv) / T), T=T,
                    provenance=gamma.provenance, names=gamma.names)


# ---------------------------------------------------------------------------
# Variance profile of the fitted memory curve (identity link)
# ---------------------------------------------------------------------------


def gram_closed(basis: BasisSpec) -> np.ndarray:
    """Exact Gram matrix [int_0^1 g_i g_j du] of a basis."""
    if basis.kind == "polynomial":
        lo = 0 if basis.intercept else 1
        powers = np.arange(lo, basis.degree + 1)
        return 1.0 / (powers[:, None] + powers[None, :] + 1.0)
    w = np.array(((0.0,) if basis.intercept else ()) + tuple(basis.freqs))
    diff = w[:, None] - w[None, :]
    summ = w[:, None] + w[None, :]
    return 0.5 * (np.sinc(diff / np.pi) + np.sinc(summ / np.pi))


def gram_quadrature(basis: BasisSpec) -> np.ndarray:
    """Gram matrix by 64-node Gauss-Legendre quadrature (independent route)."""
    x, w = _gl_nodes(0.0, 1.0, 64)
    design = basis.design_matrix(x)
    return design.T @ (design * w[:, None])


def gamma_d_block(basis: BasisSpec) -> np.ndarray:
    """d-block of the Fisher matrix for an identity-link memory curve.

    Theta-free: (pi^2/6) times the basis Gram matrix.
    """
    return PI2_6 * gram_closed(basis)


def dhat_variance_profile(gamma_alpha, basis: BasisSpec, u) -> np.ndarray:
    """Pointwise limit of T * var(dhat(u)): g(u)' Gamma_alpha^{-1} g(u)."""
    mat = getattr(gamma_alpha, "matrix", gamma_alpha)
    design = basis.design_matrix(u)
    factor = _check_spd(np.asarray(mat, dtype=float), "memory-curve Fisher block")
    solved = cho_solve(factor, design.T, check_finite=False)
    return np.einsum("ij,ji->i", design, solved)


def average_variance_check(basis: BasisSpec) -> float:
    """trace(Gamma_alpha^{-1} B) with B the quadrature Gram matrix.

    Equals 6 p / pi^2 for any invertible p-function basis: the closed
    Fisher block is (pi^2/6) B, so the trace collapses to (6/pi^2) p
    whenever the two independently computed Gram matrices agree.
    """
    gamma = gamma_d_block(basis)
    factor = _check_spd(gamma, "memory-curve Fisher block")
    b = gram_quadrature(basis)
    return float(np.trace(cho_solve(factor, b, check_finite=False)))


def write_gamma_csv(gamma: GammaMatrix, path) -> None:
    """Matrix CSV with parameter names on rows and columns."""
    with open(path, "w") as fh:
        fh.write("param," + ",".join(gamma.names) + "\n")
        for name, row in zip(gamma.names, gamma.matrix):
            fh.write(name + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def write_se_csv(report: SEReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("param,sd\n")
        for name, value in zip(report.names, report.sd):
            fh.write(f"{name},{value:.17g}\n")
