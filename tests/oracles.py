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


def mp_covariance(ds, dt, ss, st, vt, k):
    """E[Y_s Y_t] of the simulator's family at lag k >= 0, in 40 digits.

    The closed form in the ``lswhittle.simulator`` docstring with mpmath's
    gamma functions; the float arguments are taken as exact.  Needs mpmath.
    """
    import mpmath

    with mpmath.workdps(40):
        ds, dt, vt = mpmath.mpf(ds), mpmath.mpf(dt), mpmath.mpf(vt)
        ratio = mpmath.exp(mpmath.loggamma(k + ds) - mpmath.loggamma(k + 1 - dt))
        value = (mpmath.gamma(1 - ds - dt) * ratio
                 / (mpmath.gamma(1 - ds) * mpmath.gamma(ds)))
        bracket = (1 + vt * vt - vt * (k - dt) / (k - 1 + ds)
                   - vt * (k + ds) / (k + 1 - dt))
        return value * bracket * mpmath.mpf(ss) * mpmath.mpf(st)


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


def score_tensor_derivatives(objective, theta):
    """Gradient, Hessian and Gauss-Newton matrix of a WhittleObjective from
    the full score tensor, as the objective computed them before the J'GJ
    contraction.

    s = d log f / d theta on the (block midpoint, Fourier frequency) grid
    comes from log_spectral_gradient_grid and f from spectral_density; the
    second derivatives of log f are written out here curve by curve, as
    design' diag(d^2 log f / d eta^2) design with d^2 log f / d eta^2 =
    link'^2 h'' + link'' h'.  Then, with R = I/f and weights w,

        g  = norm sum w (1 - R) s
        GN = norm sum w R s s'
        H  = GN + norm sum w (1 - R) d^2 log f / d theta^2
    """
    model, plan = objective.model, objective.plan
    theta = np.asarray(theta, dtype=float)
    n = plan.N
    lam = 2.0 * math.pi * np.arange(1, n // 2 + 1) / n
    w = np.full(len(lam), 2.0 * (2.0 * math.pi / n))
    if n % 2 == 0:
        w[-1] *= 0.5
    norm = 1.0 / (4.0 * math.pi * plan.M)
    u = plan.u
    ratio = objective.ordinates / spectral_density(model, theta, u[:, None],
                                                   lam[None, :])
    resid = (1.0 - ratio) * w
    score = log_spectral_gradient_grid(model, theta, u, lam)
    score = score.reshape(len(theta), -1)
    gradient = norm * (score @ resid.ravel())
    gauss_newton = norm * ((score * (ratio * w).ravel()) @ score.T)
    hessian = gauss_newton.copy()
    cos = np.cos(lam)
    for (key, spec), index in zip(model.curves(), model.slices().values()):
        design = spec.basis.design_matrix(u)
        eta = design @ theta[index]
        if spec.link == "log":
            c = np.exp(eta)
            dlink, d2link = c, c
        else:
            c, dlink, d2link = eta, np.ones_like(eta), np.zeros_like(eta)
        c = c[:, None]
        if key == "d":
            h1 = np.broadcast_to(-2.0 * np.log(2.0 * np.sin(lam / 2.0)),
                                 ratio.shape)
            h2 = np.zeros(ratio.shape)
        elif key == "sigma":
            h1 = np.broadcast_to(2.0 / c, ratio.shape)
            h2 = np.broadcast_to(-2.0 / c ** 2, ratio.shape)
        else:
            g = 1.0 if key.startswith("ma") else -1.0
            a = spec.sign * c
            q = 1.0 + 2.0 * a * cos + a * a
            h1 = 2.0 * g * spec.sign * (cos + a) / q
            h2 = g * 2.0 * (q - 2.0 * (cos + a) ** 2) / q ** 2
        curvature = dlink[:, None] ** 2 * h2 + d2link[:, None] * h1
        r = (curvature * resid).sum(axis=1)
        hessian[index, index] += norm * (design.T @ (r[:, None] * design))
    return gradient, hessian, gauss_newton
