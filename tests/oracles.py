"""Independent reference implementations used to pin test expectations.

Everything here is deliberately written the slow, obvious way (direct
summation, textbook recursions, library quadrature) and stays independent
of the package's fast paths.
"""
import math

import numpy as np
from scipy.integrate import quad

from lswhittle import asymptotics, log_spectral_gradient_grid, spectral_density


def fn_acv(d, k):
    """Stationary fractional-noise autocovariance at lag k (sigma = 1)."""
    k = abs(int(k))
    log = (math.lgamma(1.0 - 2.0 * d) + math.lgamma(k + d)
           - math.lgamma(1.0 - d) - math.lgamma(d) - math.lgamma(k + 1.0 - d))
    return math.exp(log)


def arfima01_acv(d, theta, k):
    """Stationary ARFIMA(0, d, 1) autocovariance, MA polynomial 1 - theta*B."""
    k = abs(int(k))
    return ((1.0 + theta * theta) * fn_acv(d, k)
            - theta * fn_acv(d, abs(k - 1)) - theta * fn_acv(d, k + 1))


def naive_periodogram(block, h, lam):
    """Tapered periodogram of one block by direct double summation."""
    n = len(block)
    out = np.empty(len(lam))
    h2 = sum(float(h[s]) ** 2 for s in range(n))
    for i, freq in enumerate(lam):
        re = im = 0.0
        for s in range(n):
            w = float(h[s]) * float(block[s])
            re += w * math.cos(freq * s)
            im -= w * math.sin(freq * s)
        out[i] = (re * re + im * im) / (2.0 * math.pi * h2)
    return out


def naive_whittle(model, theta, data, plan, taper):
    """Blockwise Whittle objective by direct sums over blocks/frequencies.

    Each tapered ordinate is the explicit cosine and sine sum over the
    block's samples; f comes from one spectral_density call on the
    (u_j, lam_k) grid.
    """
    n = plan.N
    nfreq = n // 2
    lam = 2.0 * math.pi * np.arange(1, nfreq + 1) / n
    h = np.asarray(taper.weights, dtype=float)
    starts = plan.S * np.arange(plan.M)
    blocks = h * np.asarray(data, dtype=float)[starts[:, None] + np.arange(n)]
    phase = np.outer(np.arange(n), lam)
    re = blocks @ np.cos(phase)
    im = -(blocks @ np.sin(phase))
    ords = (re * re + im * im) / (2.0 * math.pi * np.sum(h * h))
    u = (starts + n // 2) / plan.T
    f = spectral_density(model, theta, u[:, None], lam[None, :])
    w = np.full(nfreq, 2.0 * (2.0 * math.pi / n))
    if n % 2 == 0:
        w[-1] *= 0.5
    return float(np.sum((np.log(f) + ords / f) @ w)) / (4.0 * math.pi * plan.M)


def naive_innovations(cov):
    """Textbook innovations recursion on a covariance matrix.

    Returns the unit-lower-triangular coefficient matrix L and the
    one-step prediction variances v with cov = L diag(v) L'.
    """
    cov = np.asarray(cov, dtype=float)
    t = cov.shape[0]
    coef = np.eye(t)
    v = np.zeros(t)
    v[0] = cov[0, 0]
    for i in range(1, t):
        for k in range(i):
            acc = cov[i, k]
            for j in range(k):
                acc -= coef[k, j] * coef[i, j] * v[j]
            coef[i, k] = acc / v[k]
        v[i] = cov[i, i] - np.sum(coef[i, :i] ** 2 * v[:i])
    return coef, v


def fd_gradient(fun, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        h = step * max(1.0, abs(x[i]))
        hi[i] += h
        lo[i] -= h
        grad[i] = (fun(hi) - fun(lo)) / (2.0 * h)
    return grad


def quad_gram(basis, i, j):
    """Basis Gram entry by adaptive quadrature."""
    val, _ = quad(lambda u: basis.design_matrix(np.array([u]))[0, i]
                  * basis.design_matrix(np.array([u]))[0, j], 0.0, 1.0,
                  limit=200)
    return val


def einsum_gamma(model, theta):
    """Quadrature Fisher matrix contracted over the whole (u, lam) grid.

    The full score grid, shape (p, 64, 1176), is built in one call and
    reduced by one einsum over the package's u rule and lam mesh; this is
    the reference for the blockwise Gram products of gamma_quadrature.
    """
    xu, wu = asymptotics.U_RULE
    xl, wl = asymptotics.lambda_mesh()
    grad = log_spectral_gradient_grid(model, theta, xu, xl)
    gamma = np.einsum("a,b,iab,jab->ij", wu, 2.0 * wl, grad, grad) / (4.0 * np.pi)
    return 0.5 * (gamma + gamma.T)
