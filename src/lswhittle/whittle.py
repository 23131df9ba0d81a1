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

The fit searches the model's feasible polytope (tvmodel._constraint_rows),
where L is the sum above.  Outside it curve values are clipped into the box
before assembling f, and the squared clip distance (times a fixed scale) is
added, so L is finite everywhere, continuous, pure, and deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import LinearConstraint, minimize

from .spectral import BlockPlan, LocalPeriodogram, Taper, local_periodogram
from .tvmodel import (ModelSpec, ParamVector, _constraint_rows, curve_bounds,
                      frequencies, log_density, log_density_score, slot_table,
                      slot_values, theta_values, validate_params)

PENALTY_SCALE = 1e3


class WhittleObjective:
    """Callable objective over the packed coefficient vector.

    Precomputes the slot table at the block midpoints, each curve's box
    and the frequency kernels, so one evaluation is a handful of small
    vectorized array ops.
    """

    def __init__(self, periodogram: LocalPeriodogram, model: ModelSpec):
        self.model = model
        plan = periodogram.plan
        self.plan = plan
        self.ordinates = periodogram.ordinates
        self._freqs = frequencies(periodogram.freqs)
        w = np.full(len(periodogram.freqs), 2.0 * (2.0 * np.pi / plan.N))
        if plan.N % 2 == 0:
            w[-1] = 2.0 * np.pi / plan.N  # Nyquist is its own mirror image
        self._w = w
        self._slots = slot_table(model, plan.u)
        self._bounds = [curve_bounds(slot.key) for slot in self._slots]
        self._norm = 1.0 / (4.0 * np.pi * plan.M)

    def __call__(self, theta) -> float:
        vals = slot_values(self._slots, theta_values(self.model, theta))
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
        dev = np.negative(logf)
        np.exp(dev, out=dev)
        dev *= self.ordinates
        dev += logf  # log f + I / f
        return float(self._norm * np.add.reduce(dev @ self._w)
                     + PENALTY_SCALE * penalty)

    def gradient(self, theta) -> np.ndarray:
        """norm sum_j sum_k w_k (1 - I/f) dlog f/dtheta: the gradient of L
        inside the feasible polytope (no clip, no penalty)."""
        values = theta_values(self.model, theta)
        curves = {k: c[:, None]
                  for k, c in slot_values(self._slots, values).items()}
        logf = log_density(self._slots, curves, self._freqs)
        resid = 1.0 - self.ordinates * np.exp(-logf)
        score = log_density_score(self._slots, values, self._freqs)
        return self._norm * (score.reshape(len(values), -1)
                             @ (resid * self._w).ravel())


@dataclass(frozen=True)
class FitResult:
    theta: ParamVector
    objective: float
    iterations: int
    evaluations: int
    converged: bool
    plan: BlockPlan
    message: str = ""  # the optimizer's stopping message


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
    """scipy's SLSQP run from x0 on the analytic gradient, constrained to
    the model's rows lo <= A theta <= hi; returns its OptimizeResult."""
    A, lo, hi = _constraint_rows(objective.model)[:3]
    return minimize(objective, x0, jac=objective.gradient, method="SLSQP",
                    constraints=[LinearConstraint(A, lo, hi)],
                    options={"ftol": 1e-12})


def estimate(data, model: ModelSpec, plan: BlockPlan, taper: Taper,
             start=None) -> FitResult:
    """Minimize the blockwise Whittle objective: one fit_objective run from
    the documented starting point (or ``start``).  ``converged`` is the
    optimizer's success flag and final-point feasibility (validate_params);
    ``evaluations`` counts objective calls, not gradient calls."""
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    if len(data) != plan.T:
        raise ValueError(f"data length {len(data)} != plan.T {plan.T}")
    pg = local_periodogram(data, plan, taper)
    objective = WhittleObjective(pg, model)
    x0 = starting_point(model, data) if start is None else \
        theta_values(model, start)
    res = fit_objective(objective, x0)
    return FitResult(
        theta=model.make_params(res.x),
        objective=float(res.fun),
        iterations=int(res.nit),
        evaluations=int(res.nfev),
        converged=bool(res.success and validate_params(model, res.x).feasible),
        plan=plan,
        message=str(res.message),
    )


def fit_summary(fit: FitResult) -> str:
    """Plain-text block: convergence, objective, iterations, evaluations,
    the stopping message and the plan, then one line per coefficient."""
    lines = [
        f"converged: {str(fit.converged).lower()}",
        f"objective: {fit.objective:.17g}",
        f"iterations: {fit.iterations}",
        f"evaluations: {fit.evaluations}",
        f"stopped: {fit.message}",
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
