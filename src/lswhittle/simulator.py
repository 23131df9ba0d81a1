"""Exact Gaussian simulation via the closed-form time-varying covariance.

The simulated family is the MA(1)-modulated long-memory model

    Y_t = sigma(t/T) (1 - vartheta B) (1 - B)^(-d(t/T)) eps_t

whose covariance has a closed form: for s >= t, with ds = d(s/T),
dt = d(t/T), k = s - t,

    E[Y_s Y_t] = sigma(s/T) sigma(t/T)
                 * Gamma(1-ds-dt) Gamma(k+ds)
                   / (Gamma(1-ds) Gamma(ds) Gamma(k+1-dt))
                 * [1 + vt^2 - vt (k-dt)/(k-1+ds) - vt (k+ds)/(k+1-dt)]

evaluated through log-gamma differences so large lags cannot overflow.  The
covariance matrix is factored with the innovations (one-step prediction)
decomposition K = L D L', L unit lower triangular, D = diag(v), and paths
are generated as Y = L (sqrt(v) * z) with z standard normal from a
counter-based generator keyed by (seed, replication), so replications are
reproducible in any order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.special import gammaln

from .errors import NotPositiveDefiniteError
from .tvmodel import ModelSpec, curve_values, require_feasible, theta_values


def _ma_theta(model: ModelSpec, values: np.ndarray) -> float:
    """Constant MA(1) coefficient vartheta of the (1 - vartheta B) factor.

    The simulator covers AR order 0 and MA order 0 or 1 with a constant MA
    coefficient; anything else has no closed-form covariance here.
    """
    if model.ar:
        raise ValueError("simulation supports AR order 0 only")
    if not model.ma:
        return 0.0
    spec = model.ma[0]
    if spec.size != 1 or spec.basis.kind != "polynomial" or not spec.basis.intercept:
        raise ValueError("simulation needs a constant MA coefficient curve")
    c = curve_values(model, values, np.array([0.5]))["ma1"][0]
    # the closed form is written for (1 - vt B); a (1 + c B) factor is vt = -c
    return float(-spec.sign * c)


def covariance(model: ModelSpec, theta, s: int, t: int, T: int) -> float:
    """E[Y_s Y_t] for 1 <= t <= s <= T (1-based times)."""
    if not 1 <= t <= s <= T:
        raise ValueError("need 1 <= t <= s <= T (symmetrize at the call site)")
    values = theta_values(model, theta)
    require_feasible(model, values)
    vt = _ma_theta(model, values)
    us, ut = s / T, t / T
    cs = curve_values(model, values, np.array([us, ut]))
    ds, dt = cs["d"][0], cs["d"][1]
    ss, st = cs["sigma"][0], cs["sigma"][1]
    return float(_cov_formula(np.array([ds]), np.array([dt]),
                              np.array([float(s - t)]), vt)[0] * ss * st)


def _cov_formula(ds, dt, k, vt):
    """Vectorized closed form at unit sigma; k = s - t >= 0."""
    log_fn = (gammaln(1.0 - ds - dt) + gammaln(k + ds)
              - gammaln(1.0 - ds) - gammaln(ds) - gammaln(k + 1.0 - dt))
    bracket = (1.0 + vt * vt
               - vt * (k - dt) / (k - 1.0 + ds)
               - vt * (k + ds) / (k + 1.0 - dt))
    return np.exp(log_fn) * bracket


@dataclass(frozen=True)
class CovKernel:
    """Covariance kernel of one model at one parameter point and length T."""

    model: ModelSpec
    theta: np.ndarray
    T: int

    def matrix(self) -> np.ndarray:
        """Dense T x T covariance matrix (symmetric, positive definite)."""
        model, T = self.model, self.T
        values = theta_values(model, self.theta)
        require_feasible(model, values)
        vt = _ma_theta(model, values)
        u = np.arange(1, T + 1) / T
        cs = curve_values(model, values, u)
        dvals, svals = cs["d"], cs["sigma"]
        rows, cols = np.tril_indices(T)
        vals = _cov_formula(dvals[rows], dvals[cols],
                            (rows - cols).astype(float), vt)
        vals *= svals[rows] * svals[cols]
        K = np.zeros((T, T))
        K[rows, cols] = vals
        K[cols, rows] = vals
        return K


def make_kernel(model: ModelSpec, theta, T: int) -> CovKernel:
    if T < 2:
        raise ValueError("series length T must be >= 2")
    return CovKernel(model=model, theta=theta_values(model, theta), T=T)


@dataclass(frozen=True)
class InnovationsState:
    """One-step prediction decomposition K = L D L'.

    coeffs is the unit-lower-triangular L whose entry L[n, n-j] is the
    weight theta_{n,j} of the j-th most recent innovation; variances holds
    the prediction variances v_n = D[n, n].
    """

    coeffs: np.ndarray
    variances: np.ndarray


def innovations_decompose(kernel: CovKernel) -> InnovationsState:
    """Factor the kernel matrix as K = L D L'.

    Computed via a Cholesky factorization rescaled to unit diagonal, which
    equals the classical innovations recursion output by uniqueness of the
    triangular factorization of a positive definite matrix (the recursion
    itself serves as the O(T^3) reference in the test suite).
    """
    K = kernel.matrix()
    try:
        C = cholesky(K, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"covariance matrix of size {kernel.T} is not positive definite: {exc}"
        ) from exc
    diag = np.diag(C).copy()
    if np.any(diag <= 0.0):
        idx = int(np.argmax(diag <= 0.0))
        raise NotPositiveDefiniteError(
            f"nonpositive prediction variance at index {idx}"
        )
    return InnovationsState(coeffs=C / diag[None, :], variances=diag ** 2)


@dataclass(frozen=True)
class SimConfig:
    """Length, base seed, and replication index of one simulated path."""

    T: int
    seed: int
    replication: int = 0

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("series length T must be >= 2")


def rng_for(seed: int, replication: int) -> np.random.Generator:
    """Counter-based generator keyed by two unsigned 64-bit words."""
    for name, value in (("seed", seed), ("replication", replication)):
        if not 0 <= value < 2 ** 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    key = np.array([seed, replication], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def paths_from_state(state: InnovationsState, seed: int, replications) -> np.ndarray:
    """Simulate one path per replication index: shape (len(reps), T).

    Reuses a precomputed decomposition; each row depends only on (seed,
    replication), so worker count and evaluation order cannot change the
    output.
    """
    scale = state.coeffs * np.sqrt(state.variances)[None, :]
    reps = np.atleast_1d(np.asarray(replications, dtype=int))
    T = len(state.variances)
    out = np.empty((len(reps), T))
    for i, rep in enumerate(reps):
        z = rng_for(seed, int(rep)).standard_normal(T)
        out[i] = scale @ z
    return out


def simulate_path(model: ModelSpec, theta, config: SimConfig) -> np.ndarray:
    """One exact path of length config.T (deterministic in the config)."""
    state = innovations_decompose(make_kernel(model, theta, config.T))
    return paths_from_state(state, config.seed, [config.replication])[0]


def write_series_csv(y: np.ndarray, path) -> None:
    """Series CSV: header t,value; 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, val in enumerate(np.asarray(y, dtype=float), start=1):
            fh.write(f"{t},{val:.17g}\n")


def read_series_csv(path) -> np.ndarray:
    """Parse a series CSV, reporting the offending row on bad input."""
    from .errors import ConfigError

    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise ConfigError(f"{path}: expected header 't,value', got {header!r}")
        out = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                out.append(float(parts[1]))
            except (IndexError, ValueError):
                raise ConfigError(f"{path}: non-numeric value on row {lineno}")
            try:
                t = int(parts[0])
            except ValueError:
                raise ConfigError(f"{path}: non-integer t on row {lineno}")
            if t != len(out):
                raise ConfigError(f"{path}: row {lineno} has t={t}, "
                                  f"expected t={len(out)}")
    return np.array(out)
