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
matrix is filled in blocks of ROW_BLOCK rows, each mirrored into the upper
triangle as it is written, so building it takes one T x T array plus
O(ROW_BLOCK x T) temporaries.  It is factored in place with the innovations
(one-step prediction) decomposition K = L D L', L unit lower triangular,
D = diag(v), and paths are generated as Y = L (sqrt(v) * z) with z standard
normal from a counter-based generator keyed by (seed, replication), so
replications are reproducible in any order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf
from scipy.special import gammaln

from .errors import NotPositiveDefiniteError
from .tvmodel import ModelSpec, curve_values, require_feasible, theta_values

# Rows of the covariance matrix evaluated per block: large enough that the
# per-block overhead vanishes, small enough that the temporaries stay far
# below the T x T matrix itself.
ROW_BLOCK = 128
# Paths per triangular product.  OpenBLAS 0.3.30 (SkylakeX kernels) gives a
# row of a trmm product the same bits in any product of up to 192 rows, its
# row blocking, and not beyond; 64 stays well inside.
PATH_BLOCK = 64


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
    return float(_cov_formula(ds, dt, float(s - t), vt, gammaln(1.0 - ds),
                              gammaln(ds)) * ss * st)


def _cov_formula(ds, dt, k, vt, lg_one_minus_ds, lg_ds):
    """Vectorized closed form at unit sigma; k = s - t >= 0.

    lg_one_minus_ds and lg_ds are gammaln(1 - ds) and gammaln(ds), which
    depend on the row alone, so a caller evaluates them once per row.
    """
    log_fn = (gammaln(1.0 - ds - dt) + gammaln(k + ds)
              - lg_one_minus_ds - lg_ds - gammaln(k + 1.0 - dt))
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
        d, sig = cs["d"], cs["sigma"]
        lg_one_minus_d, lg_d = gammaln(1.0 - d), gammaln(d)
        idx = np.arange(T)
        lower = np.tri(ROW_BLOCK, dtype=bool)
        K = np.empty((T, T))
        for i0 in range(0, T, ROW_BLOCK):
            i1 = min(i0 + ROW_BLOCK, T)
            rows = slice(i0, i1)
            # |s - t| keeps the entries right of the diagonal finite; they
            # are replaced by their mirror images below
            k = np.abs(idx[rows, None] - idx[:i1]).astype(float)
            block = _cov_formula(d[rows, None], d[:i1], k, vt,
                                 lg_one_minus_d[rows, None], lg_d[rows, None])
            block *= sig[rows, None] * sig[:i1]
            K[rows, :i0] = block[:, :i0]
            K[:i0, rows] = block[:, :i0].T
            square = block[:, i0:]
            n = i1 - i0
            K[rows, rows] = np.where(lower[:n, :n], square, square.T)
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
    itself serves as the O(T^3) reference in the test suite).  LAPACK
    potrf overwrites the matrix the kernel returns: K is symmetric, so its
    transpose is the same matrix in the column-major order LAPACK works in.
    """
    K = kernel.matrix()
    C, info = dpotrf(K.T, lower=True, clean=True, overwrite_a=True)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"covariance matrix of size {kernel.T} is not positive definite: "
            f"{info}-th leading minor of the array is not positive definite")
    diag = np.diag(C).copy()
    if np.any(diag <= 0.0):
        idx = int(np.argmax(diag <= 0.0))
        raise NotPositiveDefiniteError(
            f"nonpositive prediction variance at index {idx}"
        )
    C /= diag[None, :]
    return InnovationsState(coeffs=C, variances=diag ** 2)


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
    output.  Up to PATH_BLOCK paths come from one triangular product
    (sqrt(v) * Z') L', one path per row of Z'.  BLAS trmm computes every
    row of such a product alike whatever the number of rows up to its row
    blocking, which numpy's matmul does not (one path goes to gemv).
    """
    # Python ints, so an index up to 2^64 - 1 reaches rng_for intact
    reps = [int(r) for r in
            np.atleast_1d(np.asarray(replications, dtype=object))]
    T = len(state.variances)
    sqrt_v = np.sqrt(state.variances)
    out = np.empty((len(reps), T))
    for j0 in range(0, len(reps), PATH_BLOCK):
        block = reps[j0:j0 + PATH_BLOCK]
        z = np.empty((len(block), T), order="F")
        for i, rep in enumerate(block):
            z[i] = rng_for(seed, rep).standard_normal(T)
        z *= sqrt_v
        out[j0:j0 + len(block)] = dtrmm(1.0, state.coeffs, z, side=True,
                                        lower=True, trans_a=True, diag=True,
                                        overwrite_b=True)
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
