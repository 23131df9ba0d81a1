"""Exact Gaussian simulation via the closed-form time-varying covariance.

The simulated family is the MA(1)-modulated long-memory model

    Y_t = sigma(t/T) (1 - vartheta B) (1 - B)^(-d(t/T)) eps_t

whose covariance has a closed form: for s >= t, with ds = d(s/T),
dt = d(t/T), k = s - t,

    E[Y_s Y_t] = sigma(s/T) sigma(t/T)
                 * Gamma(1-ds-dt) Gamma(k+ds)
                   / (Gamma(1-ds) Gamma(ds) Gamma(k+1-dt))
                 * [1 + vt^2 - vt (k-dt)/(k-1+ds) - vt (k+ds)/(k+1-dt)]

CovKernel.matrix divides both gamma ratios by k! and so needs no log-gamma
arithmetic:

    Gamma(k+ds) / (Gamma(ds) k!)     = prod_{j<k} (j+ds)/(j+1)
    Gamma(k+1-dt) / (Gamma(1-dt) k!) = prod_{j<k} (j+1-dt)/(j+1)

are running products of factors near 1, which cannot overflow; the first
runs leftward along row s from the diagonal, the second down column t.
sigma/Gamma(1-d) folds into per-time start values, so each entry calls one
special function, Gamma(1-ds-dt), whose argument lies in (0.002, 1).
Against 40-digit arithmetic at T = 2048 the entries are within 2e-13
relative, where the log-gamma form (kept in covariance() as the pointwise
reference) is off by up to 5e-12 at long lags.  The matrix is filled in
blocks of ROW_BLOCK rows, each mirrored into the upper triangle as it is
written, so building it takes one T x T array plus O(ROW_BLOCK x T) work
arrays.

The matrix is factored in place with the innovations (one-step
prediction) decomposition K = L D L', L unit lower triangular,
D = diag(v), and paths are generated as Y = L (sqrt(v) * z) with z standard
normal from a counter-based generator keyed by (seed, replication), so
replications are reproducible in any order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf
from scipy.special import gamma, gammaln

from .errors import NotPositiveDefiniteError
from .tvmodel import ModelSpec, curve_values, require_feasible, theta_values

# Rows of the covariance matrix evaluated per block.  Each product runs in
# one fixed order whatever the block size (the column products are carried
# from block to block), so the kernel's bits do not depend on it.  16 to 64
# rows build the kernel equally fast at T = 1024 and 2048; at 32 the four
# ROW_BLOCK x T work arrays take 2 MB at T = 2048.
ROW_BLOCK = 32
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
    """E[Y_s Y_t] for 1 <= t <= s <= T (1-based times).

    Evaluated by the closed form through log-gamma differences: the
    pointwise reference for CovKernel.matrix.
    """
    if not 1 <= t <= s <= T:
        raise ValueError("need 1 <= t <= s <= T (symmetrize at the call site)")
    values = theta_values(model, theta)
    require_feasible(model, values)
    vt = _ma_theta(model, values)
    us, ut = s / T, t / T
    cs = curve_values(model, values, np.array([us, ut]))
    ds, dt = cs["d"][0], cs["d"][1]
    ss, st = cs["sigma"][0], cs["sigma"][1]
    k = float(s - t)
    log_fn = (gammaln(1.0 - ds - dt) + gammaln(k + ds)
              - gammaln(1.0 - ds) - gammaln(ds) - gammaln(k + 1.0 - dt))
    bracket = (1.0 + vt * vt
               - vt * (k - dt) / (k - 1.0 + ds)
               - vt * (k + ds) / (k + 1.0 - dt))
    return float(np.exp(log_fn) * bracket * ss * st)


def _lag_view(v: np.ndarray, i0: int, n: int, i1: int) -> np.ndarray:
    """Read-only (n, i1) view of v whose entry (r, j) is v[T - 1 + i0 + r - j].

    With v[T - 1 + m] a function of the lag m, the view holds it at the lags
    s - t of rows i0 .. i0 + n - 1 and columns 0 .. i1 - 1.
    """
    T = (len(v) + 1) // 2
    step = v.strides[0]
    return as_strided(v[T - 1 + i0:], shape=(n, i1), strides=(step, -step),
                      writeable=False)


@dataclass(frozen=True)
class CovKernel:
    """Covariance kernel of one model at one parameter point and length T."""

    model: ModelSpec
    theta: np.ndarray
    T: int

    def matrix(self) -> np.ndarray:
        """Dense T x T covariance matrix (symmetric, positive definite).

        Entry (s, t), s >= t, is bracket * Gamma(1 - ds - dt) * a / b, where
        a = sigma(s)/Gamma(1 - ds) * prod_{j<k} (j + ds)/(j + 1) is a running
        product leftward along row s from the diagonal and
        b = Gamma(1 - dt)/sigma(t) * prod_{j<k} (j + 1 - dt)/(j + 1) one down
        column t, carried from one row block to the next.
        """
        model, T = self.model, self.T
        values = theta_values(model, self.theta)
        require_feasible(model, values)
        vt = _ma_theta(model, values)
        u = np.arange(1, T + 1) / T
        cs = curve_values(model, values, u)
        d, sig = cs["d"], cs["sigma"]
        one_minus_d = 1.0 - d
        g = gamma(one_minus_d)
        row_start, col_start = sig / g, g / sig
        lags = np.arange(1.0 - T, T)              # lags[T - 1 + m] = m
        steps = np.maximum(lags, 1.0)             # k as a divisor, 1 for k <= 0
        lags_down, lags_up = lags - 1.0, lags + 1.0
        lower = np.tri(ROW_BLOCK, dtype=bool)
        upper = ~lower
        K = np.empty((T, T))
        carry = np.ones(T)
        alpha, beta, work, arg = (np.empty((ROW_BLOCK, T)) for _ in range(4))
        for i0 in range(0, T, ROW_BLOCK):
            i1 = min(i0 + ROW_BLOCK, T)
            n = i1 - i0
            rows, diag = slice(i0, i1), np.arange(n)
            ds, dt = d[rows, None], d[:i1]
            k = _lag_view(lags, i0, n, i1)
            # the block is built in place in K's rows; right of the diagonal
            # it is finite filler until the mirror image replaces it
            out, a, b = K[rows, :i1], alpha[:n, :i1], beta[:n, :i1]
            w, x = work[:n, :i1], arg[:n, :i1]
            # bracket: 1 + vt^2 - vt (k - dt)/(k - 1 + ds)
            #                   - vt (k + ds)/(k + 1 - dt)
            np.subtract(k, dt, out=b)
            np.add(_lag_view(lags_down, i0, n, i1), ds, out=a)
            np.multiply(b, vt, out=out)
            out /= a
            np.subtract(1.0 + vt * vt, out, out=out)
            np.add(k, ds, out=w)
            w *= vt
            np.subtract(_lag_view(lags_up, i0, n, i1), dt, out=x)
            w /= x
            out -= w
            np.subtract(one_minus_d[rows, None], dt, out=x)
            out *= gamma(x, out=x)
            # factors (k - dt)/k and (k - 1 + ds)/k, the start values on the
            # diagonal and 1 right of it
            kk = _lag_view(steps, i0, n, i1)
            b /= kk
            a /= kk
            for m, start in ((a, row_start), (b, col_start)):
                square = m[:, i0:]
                np.copyto(square, 1.0, where=upper[:n, :n])
                square[diag, diag] = start[rows]
            # the carried row joins the first factor row, so each column's
            # product has the same bits for any ROW_BLOCK; a row at a time,
            # about 3x faster than multiply.accumulate down axis 0
            b[0] *= carry[:i1]
            for r in range(1, n):
                np.multiply(b[r - 1], b[r], out=b[r])
            carry[:i1] = b[-1]
            leftward = a[:, ::-1]
            np.multiply.accumulate(leftward, axis=1, out=leftward)
            out *= a
            out /= b
            K[:i0, rows] = out[:, :i0].T
            square = out[:, i0:]
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
