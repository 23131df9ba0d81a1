"""A fixed reference computation that measures the host's speed.

The host this benchmark was built on is a shared virtual machine whose
speed drifts by a factor of two or more over minutes: the same `long_sim`
round took 0.47 s in one stretch and 0.90 s in another, with almost no
steal time in ``/proc/stat``.  A plain interpreter loop and a small matrix
product drift with it.  The benchmark therefore times this computation
before every round and scales the throughput and the set-up time by it
(run.py): the scaled figures follow the program, and not the host's load.

A workload that fits in two worker processes at once is scaled by the
computation run in as many processes at once (`ParallelReference`).  With
one process, its scaled throughput still fell by 12% when the host slowed
to 0.4 of full speed, against 2% for the one-process `mc_table`: a slowed
host gives two busy processes less than it gives one.

The computation uses no lswhittle code, so no change to the package can
move it.  It mixes the kinds of work the workloads do: interpreter steps
(Nelder-Mead), many small NumPy calls (the objective), a BLAS product and
the Cholesky (simulator), and transcendental functions over an array too
large for the first-level caches (kernel and quadrature).
"""
from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# About what one reference computation takes at full host speed (2-vCPU
# Xeon at 2.1 GHz, one BLAS thread): ops_per_ref_s is the throughput on a
# host on which it takes this long.
NOMINAL_S = 0.0065


_worker_reference = None


def _timed_run() -> float:
    """Seconds one computation takes in a pool worker."""
    global _worker_reference
    if _worker_reference is None:
        _worker_reference = Reference()
    t = time.perf_counter()
    _worker_reference.run()
    return time.perf_counter() - t


class Reference:
    """The reference computation, on inputs fixed once for every run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300))
        self.spd = a @ a.T + 300.0 * np.eye(300)
        self.small = rng.random(16)
        self.wide = np.linspace(0.05, 20.0, 120_000)

    def run(self) -> float:
        """Do the computation once; return a number that depends on all of it."""
        s = 0
        for i in range(40_000):
            s += i * i % 7
        v = self.small
        for _ in range(1000):
            v = np.sqrt(v * v + 1.0) - 0.5 * v
        chol = np.linalg.cholesky(self.spd)
        prod = chol @ chol.T
        w = np.log1p(np.exp(-self.wide)) + np.sin(self.wide)
        return float(s + v.sum() + prod[0, 0] + w.sum())

    def sample(self, repeats: int) -> list:
        """Seconds each of `repeats` computations takes now.

        One untimed computation goes first: right after a round, it took
        about 7.0 ms against 5.5 ms for the next ones, because the round
        had pushed its inputs out of the caches.
        """
        self.run()
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t)
        return times


class ParallelReference:
    """The computation run in `workers` pool processes at once.

    Each sample is the mean of the workers' own times for one computation
    each, started together.  The pool lives only as long as the ``with``
    block, which the timed phase sits in.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = None

    def __enter__(self):
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, *exc):
        self.pool.shutdown(wait=True)

    def sample(self, repeats: int) -> list:
        """Like `Reference.sample`: one untimed round, then `repeats` times."""
        times = []
        for _ in range(repeats + 1):
            futures = [self.pool.submit(_timed_run)
                       for _ in range(self.workers)]
            times.append(statistics.mean(f.result() for f in futures))
        return times[1:]


def scaled_throughput(ops_per_round: int, round_s, reference_s) -> float:
    """Operations per second on a host where the reference takes NOMINAL_S.

    The median round time and the median reference time are taken over
    the same stretch of the run, so a host that is slower by some factor
    lengthens both and leaves the ratio alone.
    """
    return (ops_per_round / statistics.median(round_s)
            * statistics.median(reference_s) / NOMINAL_S)


def scaled_seconds(seconds: float, reference_s) -> float:
    """`seconds` as they would be on a host where the reference takes NOMINAL_S."""
    return seconds * NOMINAL_S / statistics.median(reference_s)
