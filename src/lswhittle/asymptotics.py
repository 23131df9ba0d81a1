"""Asymptotic Fisher matrix, standard errors, and variance profiles.

The estimator's limit covariance is the inverse of

    Gamma(theta) = (1/4 pi) int_0^1 int_{-pi}^{pi}
                   [grad log f(u, lam)] [grad log f(u, lam)]' dlam du

computed here two independent ways for any model: tensor Gauss-Legendre
quadrature with a frequency mesh graded dyadically toward 0 (the score's
log^2 singularity) and pi (an AR/MA zero near +-1), and gamma_exact, whose
lam integrals are closed forms (gamma_closed is gamma_exact on a catalog
family); both refuse a singular Gamma (_check_fisher).
Standard errors follow as sqrt(diag(Gamma^{-1}) / T).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NotPositiveDefiniteError
from .tvmodel import (U_RULE, BasisSpec, CurveSpec, ModelSpec, curve_kernels,
                      frequencies, gauss_legendre, log_spectral_gradient_grid,
                      read_only, require_feasible, slot_table, theta_values)

PI2_6 = np.pi ** 2 / 6.0
SPD_FLOOR = 1e-12   # smallest over largest eigenvalue of an accepted Gamma
_U_BLOCK = 16       # u nodes per score block in gamma_quadrature


def _lambda_rule():
    """12-point panels on (0, pi) that halve toward both ends.

    [pi/2^{k+1}, pi/2^k] for k = 1..48 and the stub [0, pi/2^49] tame the
    log^2 singularity of the memory score at lam = 0; their mirror images
    about pi/2 serve an AR or MA factor whose zero nears lam = pi as its
    coefficient nears +-1.
    """
    edges = np.append(np.pi / 2.0 ** np.arange(1, 50), 0.0)
    x, w = gauss_legendre(12, edges[1:], edges[:-1])
    return read_only(np.concatenate([x, np.pi - x]), np.concatenate([w, w]))


_LAMBDA_RULE = _lambda_rule()
_LAMBDA_KERNELS = frequencies(_LAMBDA_RULE[0])  # the lam rule's kernels
read_only(*_LAMBDA_KERNELS)


def lambda_mesh():
    """The fixed frequency rule (nodes, weights) on (0, pi), read-only."""
    return _LAMBDA_RULE


@dataclass(frozen=True)
class GammaMatrix:
    """Fisher matrix with its provenance ("quadrature", "exact" or a
    catalog id)."""

    matrix: np.ndarray
    provenance: str
    theta: np.ndarray
    names: tuple


def _check_spd(mat: np.ndarray, what: str):
    try:
        return cho_factor(mat, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite: {exc}") from exc


def _check_fisher(mat: np.ndarray, what: str) -> None:
    """Refuse a Fisher matrix whose smallest eigenvalue is not above
    SPD_FLOOR times its largest: indefinite, or singular up to rounding,
    as at a non-identified theta (example5 with equal AR and MA slopes)."""
    eig = np.linalg.eigvalsh(mat)
    if not eig[0] > SPD_FLOOR * eig[-1]:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite: eigenvalues {eig[0]:.3g} "
            f"to {eig[-1]:.3g}, ratio floor {SPD_FLOOR:g}")


def gamma_quadrature(model: ModelSpec, theta) -> GammaMatrix:
    """Fisher matrix by tensor quadrature over u in (0,1), lam in (0,pi).

    Refuses an infeasible theta as require_feasible does.  The score is
    built _U_BLOCK u nodes at a time (tables and lam kernels built once),
    scaled by the square roots of the weights and contracted by one Gram
    product per block, so only one block of the grid is held at once.
    """
    values = theta_values(model, theta)
    require_feasible(model, values)
    root_wu = np.sqrt(U_RULE[1]).reshape(-1, _U_BLOCK)
    # factor 2: the integrand is even in lam, so (0, pi) is doubled
    root_wl = np.sqrt(2.0 * _LAMBDA_RULE[1])
    gamma = np.zeros((len(values), len(values)))
    for table, root in zip(_u_tables(model, _U_BLOCK), root_wu):
        grad = log_spectral_gradient_grid(model, values, table,
                                          _LAMBDA_KERNELS)
        grad *= root[:, None] * root_wl
        flat = grad.reshape(len(values), -1)
        gamma += flat @ flat.T
    gamma /= 4.0 * np.pi
    gamma = 0.5 * (gamma + gamma.T)
    _check_fisher(gamma, "quadrature Fisher matrix")
    return GammaMatrix(matrix=gamma, provenance="quadrature",
                       theta=values.copy(), names=model.param_names())


# ---------------------------------------------------------------------------
# Exact Fisher matrix
#
# Each score is a curve's chain factor J (design column times link') times
# d log f / dc, so Gamma = int_0^1 J(u)' G(u) J(u) du, where G(u) holds the
# lam integrals (1/4 pi) int s_k s_l dlam of the curve scores.  The Fourier
# series -2 log(2 sin|lam|/2) = 2 sum cos(k lam)/k and
# log(1 + 2 a cos lam + a^2) = -2 sum (-a)^k cos(k lam)/k give them in
# closed form, with a = sign * c and g = +1 for MA, -1 for AR:
#   (d, d)            pi^2/6
#   (sigma, sigma)    2 / sigma^2, held as 2 with sigma's J divided by
#                     sigma; sigma against any other curve: 0
#   (d, factor)       g sign log(1 + a)/a, limit g sign at a = 0
#   (factor, factor)  g1 g2 sign1 sign2 / (1 - a1 a2)
#
# Catalog ids name fixed model shapes (built by catalog_model):
#   example2  d = a0 + a1 u and sigma = b0 + b1 u, identity links
#   example3  d = exp(a0 + a1 u) and sigma = exp(b0 + b1 u), log links
#   harmonic  d = a0 + sum_j a_j cos(w_j u) (identity), constant sigma = b0
#   example5  d = a1 u, AR factor (1 + a2 u B), MA factor (1 + a3 u B),
#             sigma fixed at 1
#   sec4      d = a0 + a1 u, sigma = b0 + b1 u, MA factor (1 - vt B); the
#             Monte Carlo family of the tables
# ---------------------------------------------------------------------------

CATALOG_IDS = ("example2", "example3", "harmonic", "example5", "sec4")


def catalog_model(example_id: str, freqs=(1.0, 2.0)) -> ModelSpec:
    """ModelSpec of each catalog shape, built once."""
    return _catalog_model(example_id, tuple(freqs))


@functools.lru_cache(maxsize=64)
def _catalog_model(example_id: str, freqs: tuple) -> ModelSpec:
    poly1 = BasisSpec("polynomial", degree=1)
    if example_id == "example2":
        return ModelSpec(d=CurveSpec(poly1), sigma=CurveSpec(poly1))
    if example_id == "example3":
        return ModelSpec(d=CurveSpec(poly1, link="log"),
                         sigma=CurveSpec(poly1, link="log"))
    if example_id == "harmonic":
        return ModelSpec(
            d=CurveSpec(BasisSpec("harmonic", freqs=freqs)),
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


@functools.lru_cache(maxsize=64)
def _u_tables(model: ModelSpec, block: int) -> tuple:
    """The model's slot tables on the u rule, ``block`` nodes each."""
    return tuple(slot_table(model, u) for u in U_RULE[0].reshape(-1, block))


def gamma_exact(model: ModelSpec, theta) -> GammaMatrix:
    """Fisher matrix with the lam integrals in closed form (table above)
    and the u integral on the 64-node rule: sum_u w_u J(u)' G(u) J(u).

    Raises InfeasibleParameterError for an infeasible theta, as
    require_feasible does, and NotPositiveDefiniteError when Gamma is
    singular (_check_fisher).
    """
    return _gamma_exact(model, theta, "exact")


def gamma_closed(example_id: str, theta, freqs=(1.0, 2.0)) -> GammaMatrix:
    """gamma_exact for one catalog family, with the id as provenance."""
    return _gamma_exact(catalog_model(example_id, freqs), theta, example_id)


def _gamma_exact(model: ModelSpec, theta, provenance: str) -> GammaMatrix:
    values = theta_values(model, theta)
    require_feasible(model, values)
    table, = _u_tables(model, len(U_RULE[0]))
    # the curves (bounded: theta is feasible) and J(u), curve by row
    curves, jac = curve_kernels(table, values)[:2]
    jac = jac.copy()
    jac[:, 1] /= curves[:, 1:2]  # sigma's 1/sigma, so G holds 2 under any link
    gram = np.zeros((len(curves), len(table), len(table)))
    gram[:, 0, 0] = PI2_6
    gram[:, 1, 1] = 2.0
    # AR/MA curves: a = sign * c, s = g * sign
    sign = np.array([slot.spec.sign for slot in table[2:]], dtype=float)
    s = sign * [1.0 if slot.key.startswith("ma") else -1.0
                for slot in table[2:]]
    a = curves[:, 2:] * sign
    zero = a == 0.0  # log(1 + a)/a -> 1 there
    gram[:, 0, 2:] = gram[:, 2:, 0] = s * (np.log1p(a) + zero) / (a + zero)
    gram[:, 2:, 2:] = s[:, None] * s / (1.0 - a[:, :, None] * a[:, None, :])
    # Gamma = sum_u w_u J' G J: one batched product, then one Gram product
    weighted = (jac * U_RULE[1][:, None, None]).reshape(-1, len(values))
    mat = weighted.T @ (gram @ jac).reshape(-1, len(values))
    mat = 0.5 * (mat + mat.T)
    _check_fisher(mat, f"{provenance} Fisher matrix")
    return GammaMatrix(matrix=mat, provenance=provenance,
                       theta=values.copy(), names=model.param_names())


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
    x, w = U_RULE
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
