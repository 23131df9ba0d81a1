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

Parameter constraints are handled by a smooth penalty: curve values are
clipped into the feasible box before assembling f, and the squared clip
distance (times a fixed scale) is added, so the objective is finite,
continuous across the boundary, pure, and deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .spectral import BlockPlan, LocalPeriodogram, Taper, local_periodogram
from .tvmodel import (ModelSpec, ParamVector, curve_bounds, frequencies,
                      log_density, slot_table, slot_values, theta_values,
                      validate_params)

PENALTY_SCALE = 1e3
# Nelder-Mead's starting step per coefficient in link space (times the data
# SD for identity-link sigma): about one asymptotic SD at T = 512.
SIMPLEX_STEP = 0.1


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


@dataclass(frozen=True)
class FitResult:
    theta: ParamVector
    objective: float
    iterations: int
    evaluations: int
    converged: bool
    plan: BlockPlan


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


def estimate(data, model: ModelSpec, plan: BlockPlan, taper: Taper,
             start=None, options: dict | None = None) -> FitResult:
    """Minimize the blockwise Whittle objective by Nelder-Mead.

    Runs the simplex search from the documented starting point, then once
    more from a fresh simplex seeded at the first optimum (guards against
    premature collapse), and keeps the better result.  Each pass starts
    from the simplex x + diag(steps) (``SIMPLEX_STEP``) unless ``options``
    gives one.  ``converged`` reports the optimizer's own success flag and
    final-point feasibility; ``evaluations`` counts both passes' calls.
    """
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    if len(data) != plan.T:
        raise ValueError(f"data length {len(data)} != plan.T {plan.T}")
    pg = local_periodogram(data, plan, taper)
    objective = WhittleObjective(pg, model)
    x0 = starting_point(model, data) if start is None else \
        theta_values(model, start)
    opts = {"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000, "maxfev": 4000}
    if options:
        opts.update(options)
    steps = np.full(model.n_params, SIMPLEX_STEP)
    if model.sigma.link == "identity":  # the start's SD: scale-equivariant
        steps[model.slices()["sigma"]] *= max(float(np.std(data)), 1e-3)

    def search(x):
        return minimize(objective, x, method="Nelder-Mead", options={
            "initial_simplex": np.vstack([x, x + np.diag(steps)]), **opts})

    res = search(x0)
    # Restart once from a perturbed copy of the first optimum: each
    # coordinate nudged by 5% of its magnitude (at least 0.005), with
    # alternating sign so the nudge is direction-neutral overall.
    nudge = 0.05 * np.maximum(np.abs(res.x), 0.1)
    nudge[1::2] *= -1.0
    res2 = search(res.x + nudge)
    best = res2 if res2.fun <= res.fun else res
    feasible = validate_params(model, best.x).feasible
    return FitResult(
        theta=model.make_params(best.x),
        objective=float(best.fun),
        iterations=int(res.nit + res2.nit),
        evaluations=int(res.nfev + res2.nfev),
        converged=bool(best.success and feasible),
        plan=plan,
    )


def fit_summary(fit: FitResult) -> str:
    """Plain-text block: convergence, objective, iterations, evaluations."""
    lines = [
        f"converged: {str(fit.converged).lower()}",
        f"objective: {fit.objective:.17g}",
        f"iterations: {fit.iterations}",
        f"evaluations: {fit.evaluations}",
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
