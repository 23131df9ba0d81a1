"""Time-varying parameter curves and the local spectral density.

The process family is a Gaussian ARFIMA-type model whose parameters drift
smoothly in rescaled time u = t/T:

    Phi(u, B) Y_t = sigma(u) * Theta(u, B) * (1 - B)^(-d(u)) eps_t

where d(u) is the memory parameter curve, sigma(u) the innovation scale,
and Phi, Theta are AR/MA lag polynomials whose coefficients are curves as
well.  Every scalar curve c(u) is a linear combination of basis functions
mapped through a link:

    link(c(u)) = sum_j coeffs_j * g_j(u)

so the free parameters are the basis coefficients.  The local spectral
density at rescaled time u is

    f(u, lam) = sigma(u)^2 / (2 pi)
                * |Theta(u, e^{-i lam})|^2 / |Phi(u, e^{-i lam})|^2
                * (2 sin(|lam|/2))^(-2 d(u))

All evaluation routines are pure functions of immutable specs, safe to call
concurrently.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleParameterError

# The closed box of every curve's values, by curve kind.  The memory
# parameter stays inside (0, 1/2), so the spectral pole at lam = 0 remains
# integrable and the Gamma-function arguments of the covariance stay
# positive; sigma stays positive; an AR/MA coefficient keeps its
# lag-polynomial root outside the unit circle.
D_LOW = 1e-3
D_HIGH = 0.499
SIGMA_LOW = 1e-8
ARMA_BOUND = 1.0 - 1e-6
_BOUNDS = {"d": (D_LOW, D_HIGH), "sigma": (SIGMA_LOW, np.inf),
           "ar": (-ARMA_BOUND, ARMA_BOUND), "ma": (-ARMA_BOUND, ARMA_BOUND)}
# How far past a bound, in link space, a point still counts as feasible: an
# optimizer that stops on a bound may leave it outside by rounding.
FEASIBILITY_TOL = 1e-12
VALIDATION_GRID = 101
LOG_2PI = np.log(2.0 * np.pi)


def gauss_legendre(n: int, lo, hi):
    """n-point Gauss-Legendre nodes and weights on each panel [lo_k, hi_k]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def read_only(nodes, weights):
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The u rule of every Fisher integral; the feasible set checks its nodes.
U_RULE = read_only(*gauss_legendre(64, np.zeros(1), np.ones(1)))


@dataclass(frozen=True)
class BasisSpec:
    """Basis functions on [0, 1] for one parameter curve.

    kind "polynomial" uses powers g_j(u) = u^j for j = 0..degree (j starts
    at 1 when ``intercept`` is False).  kind "harmonic" uses a constant
    g_0(u) = 1 (when ``intercept`` is True) followed by g_j(u) = cos(w_j u)
    for the known frequencies ``freqs``; the frequencies are fixed
    constants, never estimated.

    A degree-0 polynomial without intercept is the empty basis (size 0):
    the curve is pinned at link^{-1}(0) with no free coefficients, which is
    how a model fixes a curve (e.g. sigma identically 1 under a log link).
    """

    kind: str
    degree: int = 0
    freqs: tuple = ()
    intercept: bool = True

    def __post_init__(self):
        if self.kind not in ("polynomial", "harmonic"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial":
            if self.degree < 0:
                raise ValueError("polynomial degree must be >= 0")
        else:
            freqs = tuple(float(w) for w in self.freqs)
            object.__setattr__(self, "freqs", freqs)
            if not freqs and not self.intercept:
                raise ValueError("harmonic basis needs frequencies or an intercept")
            sq = [w * w for w in freqs]
            if self.intercept:
                sq.append(0.0)
            if len(set(sq)) != len(sq):
                raise ValueError("harmonic frequencies must have distinct squares")

    @property
    def size(self) -> int:
        if self.kind == "polynomial":
            return self.degree + 1 if self.intercept else self.degree
        return len(self.freqs) + (1 if self.intercept else 0)

    def design_matrix(self, u) -> np.ndarray:
        """Evaluate all basis functions: shape (len(u), size)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.min() < 0.0 or u.max() > 1.0:
            raise ValueError("u must lie in [0, 1]")
        if self.kind == "polynomial":
            lo = 0 if self.intercept else 1
            powers = np.arange(lo, self.degree + 1)
            return u[:, None] ** powers[None, :]
        cols = []
        if self.intercept:
            cols.append(np.ones_like(u))
        for w in self.freqs:
            cols.append(np.cos(w * u))
        return np.column_stack(cols)


def _link_identity(eta):
    return eta


def _dlink_identity(eta):
    return np.ones_like(np.asarray(eta, dtype=float))


def _link_log(eta):
    # clamp so a wandering optimizer cannot overflow exp()
    return np.exp(np.clip(eta, -700.0, 700.0))


LINKS = {
    "identity": (_link_identity, _dlink_identity),
    "log": (_link_log, _link_log),  # d/d eta exp(eta) = exp(eta)
}


@dataclass(frozen=True)
class CurveSpec:
    """One parameter curve: a basis, a link, and (for AR/MA curves) a sign.

    The curve value is c(u) = link^{-1}(sum_j coeffs_j g_j(u)).  For AR/MA
    coefficient curves the lag-polynomial factor is (1 + sign * c(u) B);
    ``sign`` is ignored for the d and sigma curves.
    """

    basis: BasisSpec
    link: str = "identity"
    sign: int = 1

    def __post_init__(self):
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def size(self) -> int:
        return self.basis.size


@functools.lru_cache(maxsize=None)
def _param_names(n_d: int, n_sigma: int, ar_sizes: tuple, ma_sizes: tuple) -> tuple:
    names = [f"alpha{j}" for j in range(n_d)]
    names += [f"beta{j}" for j in range(n_sigma)]
    for k, size in enumerate(ar_sizes):
        names += [f"phi{k + 1}_{j}" for j in range(size)]
    for k, size in enumerate(ma_sizes):
        names += [f"theta{k + 1}_{j}" for j in range(size)]
    return tuple(names)


@dataclass(frozen=True)
class ModelSpec:
    """Full model: d curve, sigma curve, and optional AR/MA coefficient curves."""

    d: CurveSpec
    sigma: CurveSpec
    ar: tuple = ()
    ma: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(self.ar))
        object.__setattr__(self, "ma", tuple(self.ma))
        if len(self.ar) > 1 or len(self.ma) > 1:
            raise ValueError("AR and MA orders are limited to 0 or 1")

    @functools.cached_property
    def n_params(self) -> int:
        return sum(c.size for _, c in self.curves())

    def param_names(self) -> tuple:
        """Slot names in packed order; models of one shape share the tuple."""
        return _param_names(self.d.size, self.sigma.size,
                            tuple(c.size for c in self.ar),
                            tuple(c.size for c in self.ma))

    def curves(self) -> tuple:
        """(slot key, CurveSpec) pairs in packed order: d, sigma, AR, MA."""
        return (("d", self.d), ("sigma", self.sigma),
                *((f"ar{k + 1}", c) for k, c in enumerate(self.ar)),
                *((f"ma{k + 1}", c) for k, c in enumerate(self.ma)))

    def slices(self) -> dict:
        """Slot map: component name -> slice into the packed vector."""
        out = {}
        pos = 0
        for key, c in self.curves():
            out[key] = slice(pos, pos + c.size)
            pos += c.size
        return out

    def make_params(self, values) -> "ParamVector":
        return ParamVector(np.asarray(values, dtype=float), self.param_names())


@dataclass(frozen=True)
class ParamVector:
    """Packed parameter vector with per-slot names."""

    values: np.ndarray
    names: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if values.ndim != 1 or len(values) != len(self.names):
            raise ValueError("parameter vector length does not match names")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter vector must be finite")


def theta_values(model: ModelSpec, theta) -> np.ndarray:
    """Coerce a ParamVector or array-like to a validated 1-d float array."""
    values = np.asarray(getattr(theta, "values", theta), dtype=float)
    if values.shape != (model.n_params,):
        raise ValueError(
            f"parameter vector has length {values.size}, model needs {model.n_params}"
        )
    return values


class Slot(NamedTuple):
    """One curve of a model at fixed points u."""

    key: str            # "d", "sigma", "ar1" or "ma1"
    spec: CurveSpec
    design: np.ndarray  # the basis at u: shape (len(u), spec.size)
    index: slice        # the curve's coefficients in the packed vector


def slot_table(model: ModelSpec, u) -> tuple:
    """The slots of every curve at the points u, in packed order.

    Build it once per (model, u): the objective, log f, its score and
    curve_values all read the curves through it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    sl = model.slices()
    return tuple(Slot(key, spec, spec.basis.design_matrix(u), sl[key])
                 for key, spec in model.curves())


def slot_values(table: tuple, values: np.ndarray) -> dict:
    """Curve values link^{-1}(design @ coeffs) at the table's points, by slot."""
    return {s.key: LINKS[s.spec.link][0](s.design @ values[s.index])
            for s in table}


def curve_values(model: ModelSpec, theta, u):
    """All curve values at the points u: dict of arrays keyed by slot name."""
    return slot_values(slot_table(model, u), theta_values(model, theta))


def curve_bounds(key: str) -> tuple:
    """The closed box (lo, hi) of the values of the curve in slot ``key``."""
    return _BOUNDS[key.rstrip("0123456789")]


@functools.lru_cache(maxsize=64)
def _constraint_rows(model: ModelSpec) -> tuple:
    """The feasible set of a model, lo <= A @ theta <= hi, as the tuple
    (A, lo, hi, keys, points): each row of A is one curve's design in link
    space at one check point, keys its curve and points its u.  The check
    points are the two ends of a polynomial of degree <= 1 (monotone, so
    they decide), else the VALIDATION_GRID points and the U_RULE nodes,
    where the Fisher routes evaluate the curve.

    A log link maps the bounds through log; exp(eta) > 0, so sigma's floor
    and the lower AR/MA bound give no row there.  A pinned row (all-zero
    design: no coefficient moves the curve) is dropped under the identity
    link, where the curve rests at 0 (example5's d(0) = 0), and kept under
    the log link, where exp(0) = 1 is outside every d and AR/MA box.
    """
    grid = np.linspace(0.0, 1.0, VALIDATION_GRID)
    rows, bounds, keys, points = [], [], [], []
    for (key, spec), index in zip(model.curves(), model.slices().values()):
        u = grid[[0, -1]] if spec.basis.kind == "polynomial" \
            and spec.basis.degree <= 1 else np.union1d(grid, U_RULE[0])
        design = spec.basis.design_matrix(u)
        low, high = curve_bounds(key)
        if spec.link == "log":
            low = np.log(low) if key == "d" else -np.inf
            high = np.log(high)
        if low == -np.inf and high == np.inf:
            continue
        keep = design.any(axis=1) | (spec.link == "log")
        block = np.zeros((keep.sum(), model.n_params))
        block[:, index] = design[keep]
        rows.append(block)
        bounds.append(np.full((len(block), 2), (low, high)))
        keys += [key] * len(block)
        points.append(u[keep])
    lo, hi = np.concatenate(bounds).T
    return np.concatenate(rows), lo, hi, tuple(keys), np.concatenate(points)


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of feasibility validation; feasible iff violations is empty."""

    feasible: bool
    violations: tuple = ()


def validate_params(model: ModelSpec, theta) -> ConstraintReport:
    """Check theta against the model's feasible set (_constraint_rows).

    Each curve must lie in its closed box at its check points: d(u) in
    [D_LOW, D_HIGH], an identity-link sigma(u) >= SIGMA_LOW, and every
    AR/MA coefficient curve |c(u)| <= ARMA_BOUND, each bound widened by
    FEASIBILITY_TOL in link space.  Violations are reported as tuples
    (component, u, value, bound) in curve values.
    """
    A, lo, hi, keys, points = _constraint_rows(model)
    eta = A @ theta_values(model, theta)
    violations = []
    inside = (eta >= lo - FEASIBILITY_TOL) & (eta <= hi + FEASIBILITY_TOL)
    for i in np.flatnonzero(~inside):
        linkinv = LINKS[dict(model.curves())[keys[i]].link][0]
        violations.append((keys[i], float(points[i]), float(linkinv(eta[i])),
                           curve_bounds(keys[i])[int(eta[i] > hi[i])]))
    return ConstraintReport(feasible=not violations, violations=tuple(violations))


def require_feasible(model: ModelSpec, theta) -> None:
    """Raise InfeasibleParameterError when validate_params finds violations."""
    report = validate_params(model, theta)
    if not report.feasible:
        comp, uu, val, bound = report.violations[0]
        raise InfeasibleParameterError(
            f"curve {comp!r} hits {val:.6g} at u={uu:.4g} (bound {bound:.6g}); "
            f"{len(report.violations)} violations at check points in total"
        )


def _check_lambda(lam: np.ndarray) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam == 0.0):
        raise ValueError("lam = 0 is excluded: the density is unbounded there")
    if np.any(np.abs(lam) > np.pi + 1e-12):
        raise ValueError("lam must lie in [-pi, pi]")
    return lam


class Frequencies(NamedTuple):
    """The frequency kernels of log f on a set of frequencies lam."""

    half2: np.ndarray   # 2 log(2 sin(|lam|/2)), the memory kernel
    coslam: np.ndarray  # cos(lam), the AR/MA kernel


def frequencies(lam) -> Frequencies:
    """Kernels at lam in [-pi, pi] without 0."""
    lam = _check_lambda(lam)
    return Frequencies(2.0 * np.log(2.0 * np.sin(np.abs(lam) / 2.0)),
                       np.cos(lam))


def log_density(table: tuple, curves: dict, freqs: Frequencies) -> np.ndarray:
    """log f from curve values, broadcast against the frequency kernels.

    ``curves`` maps each slot key of ``table`` to its curve values; pass
    columns (shape (n_u, 1)) for the (u, lam) grid, or arrays of the
    kernels' shape for paired points.  The terms are summed in slot order:
    2 log sigma - log 2 pi, then - d * 2 log(2 sin|lam|/2), then
    +- log(1 + 2 a cos lam + a^2) with a = sign * c (+ for MA, - for AR).
    Each full-size term is built in one buffer, in that order of operations.
    """
    logf = curves["d"] * freqs.half2
    np.subtract(2.0 * np.log(curves["sigma"]) - LOG_2PI, logf, out=logf)
    for slot in table[2:]:  # the AR/MA slots follow d and sigma
        a = slot.spec.sign * curves[slot.key]
        term = 2.0 * a * freqs.coslam
        term += a * a
        np.log1p(term, out=term)
        op = np.add if slot.key.startswith("ma") else np.subtract
        op(logf, term, out=logf)
    return logf


def log_density_score(table: tuple, values: np.ndarray,
                      freqs: Frequencies) -> np.ndarray:
    """Analytic score d log f / d theta on the (u, lam) grid.

    Shape (n_params, n_u, n_lam): each coefficient's design column times
    link'(eta) times d log f / dc, which is -2 log(2 sin|lam|/2) for d,
    2 / sigma for sigma, and +-2 sign (cos lam + a) / (1 + 2 a cos lam + a^2)
    for an MA (+) or AR (-) curve c, a = sign * c.
    """
    n_u, n_lam = len(table[0].design), len(freqs.half2)
    score = np.empty((table[-1].index.stop, n_u, n_lam))
    for slot in table:
        linkinv, dlink = LINKS[slot.spec.link]
        eta = slot.design @ values[slot.index]
        c = linkinv(eta)[:, None]
        if slot.key == "d":
            dlogf = -freqs.half2
        elif slot.key == "sigma":
            dlogf = 2.0 / c
        else:
            sign = slot.spec.sign
            a = sign * c
            dlogf = (2.0 * sign * (freqs.coslam + a)
                     / (1.0 + 2.0 * a * freqs.coslam + a * a))
            if slot.key.startswith("ar"):
                dlogf = -dlogf
        chain = slot.design * dlink(eta)[:, None]
        score[slot.index] = chain.T[:, :, None] * dlogf
    return score


def spectral_density(model: ModelSpec, theta, u, lam):
    """f(u, lam) for scalar or array u and lam (broadcast elementwise)."""
    scalar = (np.ndim(u) == 0) and (np.ndim(lam) == 0)
    u_arr, lam_arr = np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(lam))
    table = slot_table(model, u_arr.ravel())
    vals = slot_values(table, theta_values(model, theta))
    out = np.exp(log_density(table, vals, frequencies(lam_arr.ravel())))
    return float(out[0]) if scalar else out.reshape(u_arr.shape)


def log_spectral_gradient_grid(model: ModelSpec, theta, u, lam) -> np.ndarray:
    """Gradient of log f with respect to theta on a (u, lam) tensor grid.

    Returns shape (n_params, len(u), len(lam)); every entry is analytic
    (see log_density_score).
    """
    return log_density_score(slot_table(model, u), theta_values(model, theta),
                             frequencies(lam))
