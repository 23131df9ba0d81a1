"""Correctness checks on the outputs the benchmark gets from lswhittle.

Each check compares an output with a computation made apart from the
program (``math.lgamma``, ``numpy.linalg.inv``, the slow oracles in
``tests/oracles.py``) or with a property the method must have.  None
compares with a stored copy of an earlier output.  Checks return what
failed, so a caller can count failed operations; an empty result means
the output passed.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

KERNEL_RTOL = 1e-10
RECONSTRUCT_RTOL = 1e-10
FISHER_ATOL = 1e-8
SD_RTOL = 1e-8
MOMENT_RTOL = 1e-12


def sec4_covariance(theta, s: int, t: int, T: int) -> float:
    """E[Y_s Y_t] of the sec4 family by the closed form, 1 <= t <= s <= T.

    The family is d(u) = a0 + a1 u, sigma(u) = b0 + b1 u and the MA factor
    (1 - vt B), with theta = (a0, a1, b0, b1, vt); the formula is the one in
    the ``lswhittle.simulator`` docstring, summed with ``math.lgamma``.
    """
    a0, a1, b0, b1, vt = (float(x) for x in theta)
    ds, dt = a0 + a1 * s / T, a0 + a1 * t / T
    ss, st = b0 + b1 * s / T, b0 + b1 * t / T
    k = s - t
    log_fn = (math.lgamma(1.0 - ds - dt) + math.lgamma(k + ds)
              - math.lgamma(1.0 - ds) - math.lgamma(ds)
              - math.lgamma(k + 1.0 - dt))
    bracket = (1.0 + vt * vt - vt * (k - dt) / (k - 1.0 + ds)
               - vt * (k + ds) / (k + 1.0 - dt))
    return ss * st * math.exp(log_fn) * bracket


def kernel_entry_errors(K, theta, positions) -> list:
    """Sampled (s, t) entries (0-based, s >= t) off the closed form."""
    T = K.shape[0]
    bad = []
    for s, t in positions:
        want = sec4_covariance(theta, s + 1, t + 1, T)
        for i, j in {(s, t), (t, s)}:
            if not abs(K[i, j] - want) <= KERNEL_RTOL * abs(want):
                bad.append((int(s), int(t), float(K[i, j]), want))
    return bad


def reconstruction_errors(coeffs, variances, K, rows) -> list:
    """Rows of L diag(v) L' that do not give back the kernel.

    Also rejects an L that is not unit lower triangular and a prediction
    variance that is not positive.
    """
    if not (np.all(np.diag(coeffs) == 1.0)
            and not np.any(np.triu(coeffs, 1)) and np.all(variances > 0.0)):
        return ["L is not unit lower triangular or v is not positive"]
    scale = np.abs(K).max()
    bad = []
    for i in rows:
        row = (coeffs[i] * variances) @ coeffs.T
        err = float(np.abs(row - K[i]).max())
        if not err <= RECONSTRUCT_RTOL * scale:
            bad.append((int(i), err))
    return bad


def row_digests(paths) -> list:
    """SHA-256 of each row's float64 bytes: equal digests, equal bits."""
    return [hashlib.sha256(np.ascontiguousarray(row, dtype=np.float64)
                           .tobytes()).digest() for row in paths]


def mismatched_rows(digests, expected) -> list:
    """Indices of rows whose digest differs from the expected one."""
    return [i for i in range(len(digests)) if digests[i] != expected[i]]


def table_errors(table, theta) -> list:
    """Table columns that do not follow from the returned estimates.

    The moments use the fits flagged converged, as ``run_mc`` documents;
    the estimates themselves must be finite.
    """
    est, conv = table.estimates, table.converged
    errors = []
    if not np.all(np.isfinite(est)):
        errors.append("non-finite estimate")
    if not np.array_equal(table.true, np.asarray(theta, dtype=float)):
        errors.append("true column differs from the truth")
    used = est[conv]
    if len(used):
        mean = np.array([math.fsum(col) / len(used) for col in used.T])
        if len(used) > 1:
            sd = np.array([math.sqrt(math.fsum((c - m) ** 2 for c in col)
                                     / (len(used) - 1))
                           for col, m in zip(used.T, mean)])
        else:
            sd = np.zeros(len(mean))
    else:
        mean = sd = np.full(est.shape[1], np.nan)
    for name, got, want in (("mean_est", table.mean_est, mean),
                            ("emp_sd", table.emp_sd, sd)):
        if not np.allclose(got, want, rtol=MOMENT_RTOL, atol=1e-15,
                           equal_nan=True):
            errors.append(f"{name} does not follow from the estimates")
    if table.n_converged != int(conv.sum()) or table.n_total != len(est):
        errors.append("replication counts do not match the estimates")
    return errors


def sd_mismatch(sd, gamma_matrix, T: int) -> bool:
    """True when sd is not sqrt(diag(Gamma^-1) / T) within SD_RTOL."""
    want = np.sqrt(np.diag(np.linalg.inv(gamma_matrix)) / T)
    return not np.allclose(sd, want, rtol=SD_RTOL, atol=0.0)


def fisher_mismatch(quadrature, closed) -> bool:
    """True when the two Fisher matrices differ by more than FISHER_ATOL."""
    return not np.abs(np.asarray(quadrature) - np.asarray(closed)).max() \
        <= FISHER_ATOL


def objective_not_minimal(naive_whittle, model, theta_hat, theta_true,
                          data, plan, taper) -> bool:
    """True when the naive objective is lower at the truth than at the fit.

    The estimator is the argmin of the objective, so the fit can never be
    beaten by the true parameter on the data it was fitted to.
    """
    at_fit = naive_whittle(model, theta_hat, data, plan, taper)
    at_truth = naive_whittle(model, theta_true, data, plan, taper)
    return not at_fit <= at_truth



def grid_row_errors(rows, T: int, cells, reps: int) -> list:
    """Indices of grid rows with the wrong cell, M or reps, or a bad mse."""
    if len(rows) != len(cells):
        return list(range(max(len(rows), len(cells))))
    bad = []
    for i, ((n, s, m, mse, used), cell) in enumerate(zip(rows, cells)):
        if ((n, s) != cell or m != (T - n) // s + 1 or (T - n) % s
                or used != reps or not (math.isfinite(mse) and mse > 0.0)):
            bad.append(i)
    return bad
