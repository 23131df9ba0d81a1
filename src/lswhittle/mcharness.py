"""Monte Carlo harness: replication tables and the (N, S) MSE grid.

Replications are the unit of parallelism.  Paths are generated in the
parent process from per-replication counter-based streams and only the
model fits are farmed out to workers, so results are byte-identical for
any worker count; aggregation is indexed by replication, never by
completion order.
"""
from __future__ import annotations

import contextlib
import logging
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (asymptotic_se, catalog_model, gamma_closed,
                          gamma_exact)
from .errors import ConfigError, PlanError
from .simulator import innovations_decompose, make_kernel, paths_from_state
from .spectral import BlockPlan, make_plan, nearest_valid_plan, taper_weights
from .tvmodel import ModelSpec, require_feasible, theta_values
from .whittle import estimate

logger = logging.getLogger(__name__)


def default_workers() -> int:
    env = os.environ.get("LSW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"LSW_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def nearest_plan(T: int, N: int, S: int) -> BlockPlan:
    """Closest valid plan to (N, S); logs when a substitution happens."""
    n2, s2 = nearest_valid_plan(T, N, S)
    if (n2, s2) != (N, S):
        logger.info("plan (N=%d, S=%d) invalid for T=%d; using (N=%d, S=%d)",
                    N, S, T, n2, s2)
    return make_plan(T, n2, s2)


def simulate_paths(model: ModelSpec, theta, T: int, reps: int,
                   seed: int) -> np.ndarray:
    """Matrix of `reps` exact paths (one per row), decomposing the kernel once."""
    state = innovations_decompose(make_kernel(model, theta, T))
    return paths_from_state(state, seed, np.arange(reps))


def _fit_task(args):
    rep, path, model, plan, taper_kind = args
    taper = taper_weights(taper_kind, plan.N)
    fit = estimate(path, model, plan, taper)
    return rep, fit.theta.values, fit.converged


def _pool_size(workers: int, reps: int) -> int:
    return min(workers, reps, os.cpu_count() or 1)


def _hold_sigterm():
    """Defer SIGTERM until the returned function restores its handler.

    The handler is swapped for one that records the signal, which the
    returned function then re-raises.  Masking SIGTERM in this thread would
    not do: another thread (a BLAS worker) takes it, and Python runs the
    handler here all the same.  Handlers run in the main thread only, so
    elsewhere nothing is held.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    caught = []
    previous = signal.signal(signal.SIGTERM, lambda *_: caught.append(1))

    def release():
        signal.signal(signal.SIGTERM, previous)
        if caught:
            caught.clear()
            signal.raise_signal(signal.SIGTERM)
    return release


@contextlib.contextmanager
def _fit_pool(workers: int, reps: int):
    """A started process pool for `reps` fits, or None to fit in-process.

    SIGTERM is held while the pool starts, so the CLI's handler cannot fire
    half way through (in an at-fork callback, or in the manager thread's
    start).  A SIGTERM that arrives meanwhile is raised once every worker
    is up, and it unwinds through the pool's shutdown.
    """
    size = _pool_size(workers, reps)
    if size <= 1:
        yield None
        return
    release = _hold_sigterm()
    try:
        # the workers take SIGTERM's default action, not the held handler
        with ProcessPoolExecutor(max_workers=size, initializer=signal.signal,
                                 initargs=(signal.SIGTERM, signal.SIG_DFL)
                                 ) as pool:
            for _ in range(size):  # start every worker and the manager thread
                pool.submit(int)
            release()
            yield pool
    finally:
        release()


def _run_fits(paths, model, plan, taper_kind, workers, pool=None):
    """Fit every path on one plan: in `pool` (from _fit_pool) if given,
    else in-process."""
    reps = len(paths)
    tasks = [(r, paths[r], model, plan, taper_kind) for r in range(reps)]
    if pool is None:
        results = map(_fit_task, tasks)
    else:
        chunksize = max(1, reps // (4 * _pool_size(workers, reps)))
        results = pool.map(_fit_task, tasks, chunksize=chunksize)
    estimates = np.empty((reps, model.n_params))
    converged = np.zeros(reps, dtype=bool)
    for rep, values, ok in results:
        estimates[rep] = values
        converged[rep] = ok
    return estimates, converged


@dataclass(frozen=True)
class MCConfig:
    """One Monte Carlo run: model, truth, sizes, replication count, seeds."""

    model: ModelSpec
    theta: np.ndarray
    T: int
    plan: BlockPlan
    reps: int
    seed: int
    workers: int = 1
    taper: str = "cosine"
    family: str = ""  # catalog id: theo_sd from gamma_closed, else gamma_exact

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if self.plan.T != self.T:
            raise PlanError(f"plan is for T={self.plan.T}, config says T={self.T}")
        if self.family and catalog_model(self.family) != self.model:
            raise ConfigError(f"the model is not the {self.family!r} catalog "
                              "model, so its Fisher matrix does not apply")


@dataclass(frozen=True)
class MCTable:
    names: tuple
    true: np.ndarray
    mean_est: np.ndarray
    emp_sd: np.ndarray
    theo_sd: np.ndarray
    n_converged: int
    n_total: int
    plan: BlockPlan
    seed: int
    estimates: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)


def run_mc(config: MCConfig) -> MCTable:
    """Simulate, fit, and summarize `reps` replications.

    Non-converged fits are excluded from the moment columns but reported
    through n_converged so they cannot silently bias the table.
    """
    model = config.model
    theta0 = theta_values(model, config.theta)
    require_feasible(model, theta0)
    paths = simulate_paths(model, theta0, config.T, config.reps, config.seed)
    with _fit_pool(config.workers, config.reps) as pool:
        estimates, converged = _run_fits(paths, model, config.plan,
                                         config.taper, config.workers, pool)
    if config.family:
        gamma = gamma_closed(config.family, theta0)
    else:
        gamma = gamma_exact(model, theta0)
    theo = asymptotic_se(gamma, config.T).sd
    used = estimates[converged]
    if len(used):
        mean_est = used.mean(axis=0)
        emp_sd = used.std(axis=0, ddof=1) if len(used) > 1 else np.zeros_like(theta0)
    else:
        mean_est = np.full_like(theta0, np.nan)
        emp_sd = np.full_like(theta0, np.nan)
    return MCTable(names=model.param_names(), true=theta0, mean_est=mean_est,
                   emp_sd=emp_sd, theo_sd=theo,
                   n_converged=int(converged.sum()), n_total=config.reps,
                   plan=config.plan, seed=config.seed,
                   estimates=estimates, converged=converged)


def mc_table_csv(table: MCTable) -> str:
    lines = ["param,true,mean_est,emp_sd,theo_sd,n_converged,n_total"]
    for i, name in enumerate(table.names):
        lines.append(
            f"{name},{table.true[i]:.17g},{table.mean_est[i]:.17g},"
            f"{table.emp_sd[i]:.17g},{table.theo_sd[i]:.17g},"
            f"{table.n_converged},{table.n_total}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MSEGrid:
    """Rows (N, S, M, mse, reps_used) over all valid cells of the ranges."""

    rows: tuple
    T: int
    seed: int


def valid_cells(T: int, n_values, s_values) -> list:
    cells = [(int(n), int(s)) for n in n_values for s in s_values
             if 2 <= n <= T and s >= 1 and (T - n) % s == 0]
    if not cells:
        raise PlanError("no valid (N, S) cell in the requested ranges")
    return cells


def mse_grid(model: ModelSpec, theta, T: int, n_values, s_values, reps: int,
             seed: int, workers: int = 1, taper: str = "cosine") -> MSEGrid:
    """Mean squared estimation error over every valid (N, S) cell.

    All cells reuse the same `reps` simulated paths (paired comparisons),
    so cell-to-cell MSE differences are not drowned in simulation noise.
    """
    theta0 = theta_values(model, theta)
    require_feasible(model, theta0)
    cells = valid_cells(T, n_values, s_values)
    paths = simulate_paths(model, theta0, T, reps, seed)
    rows = []
    # One pool serves every cell, so its workers start once per grid.
    with _fit_pool(workers, reps) as pool:
        for n, s in cells:
            plan = make_plan(T, n, s)
            estimates, _ = _run_fits(paths, model, plan, taper, workers,
                                     pool=pool)
            # Every replication enters every cell: paired comparisons
            # break if cells average over different replication subsets.
            err = estimates - theta0[None, :]
            mse = float(np.mean(np.sum(err * err, axis=1)))
            rows.append((n, s, plan.M, mse, reps))
    return MSEGrid(rows=tuple(rows), T=T, seed=seed)


def mse_grid_csv(grid: MSEGrid) -> str:
    lines = ["N,S,M,mse,reps"]
    for n, s, m, mse, reps in grid.rows:
        lines.append(f"{n},{s},{m},{mse:.17g},{reps}")
    return "\n".join(lines) + "\n"


def total_mse(table: MCTable) -> float:
    """Mean ||theta_hat - theta_true||^2 over all replications.

    Uses every replication (not only the converged ones) so values are
    directly comparable across paired-seed runs.
    """
    err = table.estimates - table.true[None, :]
    return float(np.mean(np.sum(err * err, axis=1)))
