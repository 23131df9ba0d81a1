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


def read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


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


def _link_log(eta):
    # clamp so a wandering optimizer cannot overflow exp()
    return np.exp(np.minimum(np.maximum(eta, -700.0), 700.0))


# link^{-1} by name; every derivative of exp, the log link's, is exp
LINKS = {"identity": lambda eta: eta, "log": _link_log}


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


class SlotTable(tuple):
    """The slots of a model's curves at points u (slot_table), read-only."""

    @functools.cached_property
    def design(self) -> np.ndarray:
        """Shape (n_u, n_slots, n_params): each slot's basis in its columns."""
        out = np.zeros((len(self[0].design), len(self), self[-1].index.stop))
        for k, slot in enumerate(self):
            out[:, k, slot.index] = slot.design
        return read_only(out)[0]


def slot_table(model: ModelSpec, u) -> SlotTable:
    """The slots of every curve at the points u, in packed order.

    Build it once per (model, u): the objective, log f, its score and
    curve_values all read the curves through it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    sl = model.slices()
    return SlotTable(Slot(key, spec, read_only(spec.basis.design_matrix(u))[0],
                          sl[key]) for key, spec in model.curves())


def slot_values(table: tuple, values: np.ndarray) -> dict:
    """Curve values link^{-1}(design @ coeffs) at the table's points, by slot."""
    return {s.key: LINKS[s.spec.link](s.design @ values[s.index])
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


@functools.lru_cache(maxsize=64)
def box_coordinates(model: ModelSpec):
    """Coordinates z = B @ theta in which the feasible set is the box
    lo <= z <= hi, as the tuple (B, B^-1, lo, hi), or None.

    The rows of B are the distinct non-zero rows of _constraint_rows with
    their bounds, then a unit row with bounds +-inf for every coefficient
    that no row bounds (a log-link sigma).  They are the endpoint values
    of the catalog's degree-<=1 polynomial curves in link space.  None
    when they do not form an invertible square matrix, as for a harmonic
    curve or a polynomial of degree >= 2.
    """
    A, lo, hi = _constraint_rows(model)[:3]
    # A row repeats only within one curve (a constant's two end points),
    # so with the same bounds; keep its first copy, in packed order.
    nonzero = np.flatnonzero(A.any(axis=1))
    rows = nonzero[np.sort(np.unique(A[nonzero], axis=0,
                                     return_index=True)[1])]
    unbounded = ~A.any(axis=0)
    B = np.vstack([A[rows], np.eye(model.n_params)[unbounded]])
    if B.shape[0] != model.n_params or \
            np.linalg.matrix_rank(B) < model.n_params:
        return None
    pad = np.full(unbounded.sum(), np.inf)
    return B, np.linalg.inv(B), np.r_[lo[rows], -pad], np.r_[hi[rows], pad]


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
        linkinv = LINKS[dict(model.curves())[keys[i]].link]
        violations.append((keys[i], float(points[i]), float(linkinv(eta[i])),
                           curve_bounds(keys[i])[int(eta[i] > hi[i])]))
    return ConstraintReport(feasible=not violations, violations=tuple(violations))


def active_check_points(model: ModelSpec, theta) -> tuple:
    """(curve, u) of every check point where the curve lies within
    FEASIBILITY_TOL of a bound, in link space."""
    A, lo, hi, keys, points = _constraint_rows(model)
    eta = A @ theta_values(model, theta)
    on_bound = ((np.abs(eta - lo) <= FEASIBILITY_TOL)
                | (np.abs(eta - hi) <= FEASIBILITY_TOL))
    return tuple((keys[i], float(points[i])) for i in np.flatnonzero(on_bound))


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


def curve_kernels(table: SlotTable, values: np.ndarray, freqs=None,
                  second: bool = False) -> tuple:
    """(c, J, h', d^2 log f / d eta^2) at the table's points u: the curves,
    shape (n_u, n_slots), and their chain factor J = dc/dtheta = design
    link'(eta), shape (n_u, n_slots, n_params), shared by the score J' h',
    the Whittle derivatives and the exact Fisher matrix; with ``freqs`` and
    ``second``, each slot's h' = d log f / dc and d^2 log f / d eta^2 =
    link'^2 h'' + link'' h' on the (u, lam) grid (broadcasting to (n_u,
    n_lam)).  h' and h'' are -2 log(2 sin|lam|/2) and 0 for d, 2 / sigma
    and -2 / sigma^2 for sigma, and +-2 sign (cos lam + a) / q and +-(2 / q
    - h'^2) for an MA (+) or AR (-) curve: a = sign c, q = 1 + 2 a cos lam
    + a^2."""
    n_u, n_slots, n_params = table.design.shape
    eta = (table.design.reshape(-1, n_params) @ values).reshape(n_u, n_slots)
    curves, jac = eta, table.design  # under the identity link
    logs = [k for k, slot in enumerate(table) if slot.spec.link == "log"]
    if logs:  # there link' = link'' = c
        curves, dl = eta.copy(), np.ones_like(eta)
        curves[:, logs] = dl[:, logs] = _link_log(eta[:, logs])
        jac = table.design * dl[:, :, None]
    if freqs is None:
        return curves, jac, None, None
    sigma = curves[:, 1:2]
    h1, h2 = [-freqs.half2, 2.0 / sigma], [0.0, -2.0 / (sigma * sigma)]
    for k, slot in enumerate(table[2:], 2):  # the AR/MA slots
        g = 1.0 if slot.key.startswith("ma") else -1.0
        a = slot.spec.sign * curves[:, k:k + 1]
        q = 1.0 + 2.0 * a * freqs.coslam + a * a
        h1.append(2.0 * g * slot.spec.sign * (freqs.coslam + a) / q)
        h2.append(g * (2.0 / q - h1[k] * h1[k]) if second else None)
    for k in logs if second else ():  # c^2 h'' + c h'
        h2[k] = dl[:, k, None] ** 2 * h2[k] + dl[:, k, None] * h1[k]
    return curves, jac, tuple(h1), tuple(h2) if second else None


def spectral_density(model: ModelSpec, theta, u, lam):
    """f(u, lam) for scalar or array u and lam (broadcast elementwise)."""
    scalar = (np.ndim(u) == 0) and (np.ndim(lam) == 0)
    u_arr, lam_arr = np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(lam))
    table = slot_table(model, u_arr.ravel())
    vals = slot_values(table, theta_values(model, theta))
    out = np.exp(log_density(table, vals, frequencies(lam_arr.ravel())))
    return float(out[0]) if scalar else out.reshape(u_arr.shape)


def log_spectral_gradient_grid(model: ModelSpec, theta, u, lam) -> np.ndarray:
    """The analytic score d log f / d theta on a (u, lam) tensor grid, shape
    (n_params, len(u), len(lam)): J (x) h' of curve_kernels.  A caller that
    reuses its points may pass u as slot_table(model, u), lam as
    frequencies(lam)."""
    values = theta_values(model, theta)
    table = u if isinstance(u, SlotTable) else slot_table(model, u)
    freqs = lam if isinstance(lam, Frequencies) else frequencies(lam)
    _, jac, h1, _ = curve_kernels(table, values, freqs)
    score = np.empty((len(values), len(jac), len(freqs.half2)))
    for k, slot in enumerate(table):
        score[slot.index] = jac[:, k, slot.index].T[:, :, None] * h1[k]
    return score
