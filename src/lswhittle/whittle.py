"""Blockwise Whittle quasi-likelihood and its minimizer.

The objective averages the standard frequency-domain deviance over the
block plan:

    L(theta) = (1/4 pi) (1/M) sum_j sum_k w_k
               [ log f(u_j, lam_k) + I(u_j, lam_k) / f(u_j, lam_k) ]

over the positive block Fourier frequencies lam_k = 2 pi k / N,
k = 1..floor(N/2), with weights w_k = 2 (2 pi / N) (both half-axes) and a
half weight at the Nyquist frequency for even N (it is its own mirror
image).  Frequency zero is excluded: the long-memory density diverges
there.

The fit (fit_objective) searches the model's feasible polytope
(tvmodel._constraint_rows), where L is the sum above.  Where that polytope
is a box in the coordinates tvmodel.box_coordinates gives (the endpoint
values of degree <= 1 polynomial curves: every catalog model but
`harmonic`), the fit is projected Newton on the exact Hessian of L
(WhittleObjective.derivatives); for any other model, `harmonic` included,
it is scipy's SLSQP inside the constraint rows.
Outside the polytope curve values are clipped into the box before
assembling f, and the squared clip distance (times a fixed scale) is added,
so L is finite everywhere, continuous, pure, and deterministic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import LinearConstraint, OptimizeResult, minimize

from .spectral import BlockPlan, LocalPeriodogram, Taper, local_periodogram
from .tvmodel import (ModelSpec, ParamVector, _constraint_rows,
                      active_check_points, box_coordinates, curve_bounds,
                      curve_kernels, frequencies, log_density, read_only,
                      slot_table, slot_values, theta_values, validate_params)

PENALTY_SCALE = 1e3
# projected_newton: the stopping rule, Armijo's constant, the smallest step
# length, the iteration cap and the epsilon-active distance (link space);
# newton_step: the condition limit below which a block counts as singular
NEWTON_TOL = 1e-15
ARMIJO = 1e-4
MIN_STEP = 1e-10
MAX_ITER = 100
ACTIVE_EPS = 1e-3
RCOND = 1e-10


@functools.lru_cache(maxsize=64)
def _objective_tables(model: ModelSpec, plan: BlockPlan, lam: bytes) -> tuple:
    """Read-only: the slot table at the block midpoints, each curve's box,
    the kernels at the frequencies lam (bytes), w_k and 1 / (4 pi M)."""
    table, freqs = slot_table(model, plan.u), frequencies(np.frombuffer(lam))
    w = np.full(len(freqs.half2), 2.0 * (2.0 * np.pi / plan.N))
    if plan.N % 2 == 0:
        w[-1] = 2.0 * np.pi / plan.N  # Nyquist is its own mirror image
    read_only(*freqs, w)
    return (table, tuple(curve_bounds(slot.key) for slot in table), freqs,
            w, 1.0 / (4.0 * np.pi * plan.M))


class WhittleObjective:
    """Callable objective over the packed coefficient vector.

    Its tables are built once per (model, plan) (_objective_tables), so one
    evaluation is a handful of small vectorized array ops.  A call inside
    the box keeps its I/f for a derivatives() call at the same theta; the
    values returned depend on theta alone.
    """

    def __init__(self, periodogram: LocalPeriodogram, model: ModelSpec):
        self.model = model
        self.plan = periodogram.plan
        self.ordinates = periodogram.ordinates
        self._slots, self._bounds, self._freqs, self._w, self._norm = \
            _objective_tables(model, self.plan, periodogram.freqs.tobytes())
        # I/f at the last point __call__ saw inside the box: derivatives()
        # at the same theta reads it instead of rebuilding log f
        self._last_ratio = (None, None)

    def __call__(self, theta) -> float:
        values = theta_values(self.model, theta)
        vals = slot_values(self._slots, values)
        penalty = 0.0
        curves = {}
        for slot, (lo, hi) in zip(self._slots, self._bounds):
            c = vals[slot.key]
            # A curve inside its box needs no clip and adds exactly +0.0.
            if not lo <= c.min() <= c.max() <= hi:
                clipped = np.minimum(np.maximum(c, lo), hi)
                penalty += ((c - clipped) ** 2).sum()
                c = clipped
            curves[slot.key] = c[:, None]
        logf = log_density(self._slots, curves, self._freqs)
        ratio = np.negative(logf)
        np.exp(ratio, out=ratio)
        ratio *= self.ordinates  # I / f
        if not penalty:
            self._last_ratio = (values.tobytes(), ratio)
        dev = ratio + logf
        return float(self._norm * np.add.reduce(dev @ self._w)
                     + PENALTY_SCALE * penalty)

    def derivatives(self, theta) -> "Derivatives":
        """Gradient, Hessian and Gauss-Newton matrix of L inside the feasible
        polytope (no clip, no penalty), the J'GJ contraction of block j's
        chain factor J_j = dc/dtheta and h' = d log f / dc (curve_kernels)
        with G_j = sum_k w (I/f) h' h'^T, g_j = sum_k w (1 - I/f) h' and
        r_j = sum_k w (1 - I/f) d^2 log f / d eta^2:

            g = norm sum_j J_j' g_j,  GN = norm sum_j J_j' G_j J_j,
            H = GN + norm sum_j design_j' diag(r_j) design_j.

        GN is positive semidefinite.  Where I/f overflows the entries are
        not finite, without a warning."""
        values = theta_values(self.model, theta)
        _, jac, h1, h2 = curve_kernels(self._slots, values, self._freqs,
                                       second=True)
        # h' and d^2 log f / d eta^2 of every (block, slot), by frequency
        kernels = np.empty((2, *jac.shape[:2], len(self._w)))
        for k in range(len(self._slots)):
            kernels[0, :, k], kernels[1, :, k] = h1[k], h2[k]
        h1 = kernels[0]
        key, ratio = self._last_ratio
        with np.errstate(over="ignore", invalid="ignore"):
            if key != values.tobytes():
                curves = {k: c[:, None]
                          for k, c in slot_values(self._slots, values).items()}
                ratio = self.ordinates * np.exp(
                    -log_density(self._slots, curves, self._freqs))
            g, r = (kernels @ ((1.0 - ratio) * self._w)[:, :, None])[..., 0]
            gram = (h1 * (ratio * self._w)[:, None]) @ h1.transpose(0, 2, 1)
            flat = jac.reshape(-1, len(values))
            gauss_newton = flat.T @ (gram @ jac).reshape(flat.shape)
            design = self._slots.design.reshape(flat.shape)
            hessian = gauss_newton + design.T @ (r.reshape(-1, 1) * design)
            return Derivatives(self._norm * (g.ravel() @ flat),
                               self._norm * hessian, self._norm * gauss_newton)

    def gradient(self, theta) -> np.ndarray:
        """norm sum_j sum_k w_k (1 - I/f) dlog f/dtheta: the gradient of L
        inside the feasible polytope (no clip, no penalty)."""
        return self.derivatives(theta).gradient


class Derivatives(NamedTuple):
    """First and second derivatives of L at one theta (derivatives())."""

    gradient: np.ndarray
    hessian: np.ndarray
    gauss_newton: np.ndarray  # the (I/f)-weighted part of the Hessian, PSD


@dataclass(frozen=True)
class FitResult:
    theta: ParamVector
    objective: float
    iterations: int
    evaluations: int
    converged: bool
    plan: BlockPlan
    message: str = ""  # the stopping rule that fired
    active: tuple = ()  # (curve, u) of each check point left on a bound


def starting_point(model: ModelSpec, data: np.ndarray) -> np.ndarray:
    """Documented deterministic start: d near 0.1, sigma near the sample SD.

    Intercept slots get the link-space image of the target value; every
    other coefficient starts at zero.  Fixed so Monte Carlo runs are
    reproducible.
    """
    x0 = np.zeros(model.n_params)
    sl = model.slices()
    sd = max(float(np.std(data)), 1e-3)
    if model.d.basis.intercept and model.d.size > 0:
        x0[sl["d"].start] = 0.1 if model.d.link == "identity" else np.log(0.1)
    if model.sigma.basis.intercept and model.sigma.size > 0:
        x0[sl["sigma"].start] = sd if model.sigma.link == "identity" else np.log(sd)
    return x0


def fit_objective(objective: WhittleObjective, x0):
    """Minimize the objective from x0 over the model's feasible set;
    returns an OptimizeResult (x, fun, nit, nfev, success, message).

    A model whose feasible set is a box in box_coordinates runs
    projected_newton.  Any other model (a harmonic curve, a polynomial of
    degree >= 2) runs scipy's SLSQP on the analytic gradient, constrained
    to the model's rows lo <= A theta <= hi.
    """
    box = box_coordinates(objective.model)
    if box is not None:
        return projected_newton(objective, x0, box)
    A, lo, hi = _constraint_rows(objective.model)[:3]
    return minimize(objective, x0, jac=objective.gradient, method="SLSQP",
                    constraints=[LinearConstraint(A, lo, hi)],
                    options={"ftol": 1e-12})


def projected_newton(objective: WhittleObjective, x0, box) -> OptimizeResult:
    """Projected Newton on the exact Hessian (Bertsekas 1982, SIAM J.
    Control Optim. 20:221) in the box coordinates z = B theta, lo <= z <= hi.

    From z = clip(B x0, lo, hi), each iteration splits the coordinates:
    one is epsilon-active when the gradient pushes it toward a bound no
    farther than min(ACTIVE_EPS, its gradient step scaled by the
    Gauss-Newton diagonal).  The free ones take a Newton step
    (newton_step), the active ones that scaled gradient step, and the step
    length backtracks by halves along the projection arc
    clip(z + alpha d, lo, hi) until the Armijo test holds.  Every trial
    point is evaluated by calling the objective, so nfev counts objective
    calls.  The fit converges when the free coordinates' Newton decrement
    is <= NEWTON_TOL and every active coordinate is on its bound: it takes
    that last step in full and stops.  A step length below MIN_STEP,
    MAX_ITER iterations or non-finite derivatives stop it unconverged.
    """
    B, B_inv, lo, hi = box
    z = np.minimum(np.maximum(B @ np.asarray(x0, dtype=float), lo), hi)
    fz = objective(B_inv @ z)
    nfev = 1

    def result(nit, success, message):
        return OptimizeResult(x=B_inv @ z, fun=fz, nit=nit, nfev=nfev,
                              success=success, message=message)

    for nit in range(MAX_ITER):
        g, H, gn = objective.derivatives(B_inv @ z)
        if not np.isfinite(H).all():  # I/f overflows: data out of range
            return result(nit, False, "derivatives not finite")
        g, H, gn = g @ B_inv, B_inv.T @ H @ B_inv, B_inv.T @ gn @ B_inv
        diag = gn.diagonal()
        scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))  # 1 where I/f = 0
        d = -g / (scale * scale)  # the diagonally scaled gradient step
        towards = np.where(g > 0.0, z - lo, hi - z)  # to the bound g pushes at
        active = towards <= np.minimum(ACTIVE_EPS, np.abs(d))
        free = ~active if active.any() else slice(None)
        d[free], decrement = newton_step(H[free][:, free], gn[free][:, free],
                                         g[free], scale[free])
        if decrement <= NEWTON_TOL and not towards[active].any():
            # The last step is taken without a line search: the drop it
            # promises is below the rounding of L, and after it dL/dz is at
            # rounding level.
            z = np.minimum(np.maximum(z + d, lo), hi)
            fz = objective(B_inv @ z)
            nfev += 1
            return result(nit + 1, True, f"Newton decrement <= {NEWTON_TOL:g}")
        alpha = 1.0
        while True:
            trial = np.minimum(np.maximum(z + alpha * d, lo), hi)
            f_trial = objective(B_inv @ trial)
            nfev += 1
            drop = alpha * decrement + g[active] @ (z - trial)[active]
            if f_trial <= fz - ARMIJO * drop:
                break
            alpha *= 0.5
            if alpha < MIN_STEP:
                return result(nit, False, "line search stalled")
        z, fz = trial, f_trial
    return result(MAX_ITER, False, f"iteration limit ({MAX_ITER}) reached")


def newton_step(H, gn, g, scale):
    """The step d = -H^-1 g on a block and its Newton decrement -g'd.

    Scaled by 1 / scale on both sides (scale^2 is gn's diagonal, or 1
    where that is 0), H is used when positive definite (condition better
    than 1 / RCOND), else gn (positive semidefinite).  A singular gn gives
    the least-squares step on its range plus the scaled gradient step off
    it, so the step vanishes only with the gradient.
    """
    if not g.size:
        return g, 0.0
    g = g / scale
    for matrix in (H, gn):
        lam, vec = np.linalg.eigh(matrix / (scale[:, None] * scale))
        if lam[0] > RCOND * lam[-1]:
            rest = 0.0
            break
    else:
        keep = lam > RCOND * lam[-1]
        lam, vec = lam[keep], vec[:, keep]
        rest = g - vec @ (g @ vec)  # the gradient off gn's range
    proj = g @ vec
    newton = proj / lam
    return -(vec @ newton + rest) / scale, proj @ newton + np.dot(rest, rest)


def estimate(data, model: ModelSpec, plan: BlockPlan, taper: Taper,
             start=None) -> FitResult:
    """Minimize the blockwise Whittle objective: one fit_objective run from
    the documented starting point (or ``start``).  ``converged`` is the
    optimizer's success flag and final-point feasibility (validate_params);
    ``evaluations`` counts objective calls, not derivative calls;
    ``active`` is active_check_points at the fit."""
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    if len(data) != plan.T:
        raise ValueError(f"data length {len(data)} != plan.T {plan.T}")
    with np.errstate(over="ignore", invalid="ignore"):
        pg = local_periodogram(data, plan, taper)
        x0 = starting_point(model, data) if start is None else \
            theta_values(model, start)
    if not (np.all(np.isfinite(pg.ordinates)) and np.all(np.isfinite(x0))):
        raise ValueError(
            f"data of scale {np.max(np.abs(data)):.3g} overflow the "
            "periodogram or the sample SD; divide the series by a constant")
    res = fit_objective(WhittleObjective(pg, model), x0)
    return FitResult(
        theta=model.make_params(res.x),
        objective=float(res.fun),
        iterations=int(res.nit),
        evaluations=int(res.nfev),
        converged=bool(res.success and validate_params(model, res.x).feasible),
        plan=plan,
        message=str(res.message),
        active=active_check_points(model, res.x),
    )


def fit_summary(fit: FitResult) -> str:
    """Plain-text block: convergence, objective, iterations, evaluations,
    the stopping rule, the check points on a bound (``active: d at u=1``,
    or ``none``) and the plan, then one line per coefficient."""
    active = ", ".join(f"{key} at u={u:g}" for key, u in fit.active)
    lines = [
        f"converged: {str(fit.converged).lower()}",
        f"objective: {fit.objective:.17g}",
        f"iterations: {fit.iterations}",
        f"evaluations: {fit.evaluations}",
        f"stopped: {fit.message}",
        f"active: {active or 'none'}",
        f"plan: T={fit.plan.T} N={fit.plan.N} S={fit.plan.S} M={fit.plan.M}",
    ]
    for name, value in zip(fit.theta.names, fit.theta.values):
        lines.append(f"{name}: {value:.17g}")
    return "\n".join(lines)


def write_fit_csv(fit: FitResult, path) -> None:
    """Fit report CSV: rows param,estimate."""
    with open(path, "w") as fh:
        fh.write("param,estimate\n")
        for name, value in zip(fit.theta.names, fit.theta.values):
            fh.write(f"{name},{value:.17g}\n")
