"""Block segmentation, tapering, and the local periodogram.

A series of length T is split into M blocks of length N shifted by S, so
T = S(M-1) + N.  Block j (0-based) covers observations jS .. jS+N-1 and is
assigned the rescaled time u_j = (jS + floor(N/2)) / T.  Each block is
taper-weighted and Fourier transformed; the squared transform normalized by
2 pi H2 (H2 = sum of squared taper weights) is the local periodogram that
feeds the Whittle likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanError


@dataclass(frozen=True)
class BlockPlan:
    """Valid segmentation: T = S(M-1) + N with all blocks inside [0, T)."""

    T: int
    N: int
    S: int
    M: int

    @property
    def u(self) -> np.ndarray:
        """Rescaled block midpoints u_j, strictly increasing in (0, 1)."""
        j = np.arange(self.M)
        return (j * self.S + self.N // 2) / self.T

    def block_slice(self, j: int) -> slice:
        return slice(j * self.S, j * self.S + self.N)


def nearest_valid_plan(T: int, N: int, S: int) -> tuple:
    """Closest (N', S') to (N, S) with (T - N') divisible by S'.

    Distance is |N'-N| + |S'-S|; ties break toward smaller N', then smaller
    S'.  Always succeeds because S' = 1 accepts any N'.
    """
    if not 2 <= N <= T:
        raise PlanError(f"need 2 <= N <= T, got N={N}, T={T}")
    best = None
    for radius in range(0, T + max(S, N)):
        cands = []
        for dn in range(-radius, radius + 1):
            n2 = N + dn
            s2 = S - (radius - abs(dn))
            if s2 >= 1:
                cands.append((n2, s2))
            if radius - abs(dn) != 0:
                cands.append((n2, S + (radius - abs(dn))))
        for n2, s2 in sorted(cands):
            if 2 <= n2 <= T and s2 >= 1 and (T - n2) % s2 == 0:
                best = (n2, s2)
                break
        if best is not None:
            return best
    raise PlanError("no valid plan found")  # unreachable: S'=1 always works


def make_plan(T: int, N: int, S: int) -> BlockPlan:
    """Build a BlockPlan, rejecting sizes that do not tile the series."""
    if N < 2:
        raise PlanError(f"block length N={N} is too short (need N >= 2)")
    if N > T:
        raise PlanError(f"block length N={N} exceeds series length T={T}")
    if S < 1:
        raise PlanError(f"shift S={S} must be >= 1")
    if (T - N) % S != 0:
        n2, s2 = nearest_valid_plan(T, N, S)
        raise PlanError(
            f"(T-N) = {T - N} is not divisible by S = {S}; "
            f"nearest valid plan is N={n2}, S={s2}"
        )
    return BlockPlan(T=T, N=N, S=S, M=(T - N) // S + 1)


@dataclass(frozen=True)
class Taper:
    """Sampled taper weights h(s/N), s = 0..N-1, with their power sums."""

    kind: str
    N: int
    weights: np.ndarray
    h1: float  # sum h
    h2: float  # sum h^2


def taper_weights(kind: str, N: int) -> Taper:
    """Cosine bell h(x) = (1 - cos 2 pi x)/2, or a uniform taper."""
    if N < 2:
        raise ValueError("taper length must be >= 2")
    x = np.arange(N) / N
    if kind == "cosine":
        h = 0.5 * (1.0 - np.cos(2.0 * np.pi * x))
    elif kind == "uniform":
        h = np.ones(N)
    else:
        raise ValueError(f"unknown taper kind {kind!r}")
    return Taper(kind=kind, N=N, weights=h, h1=float(h.sum()),
                 h2=float((h * h).sum()))


@dataclass(frozen=True)
class LocalPeriodogram:
    """Tapered periodogram ordinates per block and positive Fourier frequency.

    ordinates has shape (M, F) with F = floor(N/2); column k holds the
    ordinate at lam_k = 2 pi (k+1) / N.  Frequency zero is excluded: the
    long-memory density diverges there.
    """

    ordinates: np.ndarray
    freqs: np.ndarray
    plan: BlockPlan
    taper: Taper


def local_periodogram(data, plan: BlockPlan, taper: Taper) -> LocalPeriodogram:
    """Tapered local periodogram of every block in the plan.

    The transform D(u_j, lam) = sum_s h(s/N) Y[jS+s] e^{-i lam s} is
    computed with an FFT over each block row (exact for any N, composite or
    prime), and I = |D|^2 / (2 pi H2).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or len(data) != plan.T:
        raise ValueError(f"data must be a length-{plan.T} vector")
    if taper.N != plan.N:
        raise ValueError("taper length does not match block length")
    idx = np.arange(plan.M)[:, None] * plan.S + np.arange(plan.N)[None, :]
    blocks = data[idx] * taper.weights[None, :]
    dft = np.fft.rfft(blocks, axis=1)
    F = plan.N // 2
    ordinates = (dft.real[:, 1:F + 1] ** 2 + dft.imag[:, 1:F + 1] ** 2)
    ordinates /= 2.0 * np.pi * taper.h2
    freqs = 2.0 * np.pi * np.arange(1, F + 1) / plan.N
    return LocalPeriodogram(ordinates=ordinates, freqs=freqs, plan=plan,
                            taper=taper)


def write_periodogram_csv(pg: LocalPeriodogram, path) -> None:
    """Dump ordinates as CSV rows block,u,freq,ordinate."""
    u = pg.plan.u
    with open(path, "w") as fh:
        fh.write("block,u,freq,ordinate\n")
        for j in range(pg.plan.M):
            for k, lam in enumerate(pg.freqs):
                fh.write(f"{j + 1},{u[j]:.17g},{lam:.17g},"
                         f"{pg.ordinates[j, k]:.17g}\n")
