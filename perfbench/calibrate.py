"""Calibration kernels: fixed work that measures how fast the host runs now.

The machine the benchmark was written on is a shared 2-vCPU host whose speed
drifts by up to 50% for stretches of seconds to minutes.  A run therefore
times, next to the program, a kernel whose work never changes and which uses
the CPU the way the workload does, and reports the program's time as a
multiple of the kernel's time.  Both slow down together, so the ratio keeps
the program's cost and drops most of the host's drift.  Each kernel matches
its workload's kind of work and working-set size, because a slow stretch
does not slow every kind of work alike.  A ratio is reported
in the unit of time it had at the reference speed: multiplied by the
kernel's ``REFERENCE_S``, its time on that machine in a fast stretch.

No kernel calls into ``src/``: a change to the program cannot move them.
"""

import functools
import subprocess
import sys
import time

import numpy as np


def interpreter() -> None:
    """Python-level work with tiny arrays, like the n=2 study sweep."""
    a = np.arange(4.0)
    acc = 0.0
    for _ in range(6000):
        d = {"x": 1, "y": 2}
        acc += d["x"] + len([i for i in range(8)])
        acc += float(a @ a)


@functools.cache
def _matrices(n: int):
    """A fixed n x n matrix, a symmetric positive definite one and a vector."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    return a, a @ a.T / n + np.eye(n), rng.standard_normal(n)


def small_arrays() -> None:
    """Many numpy calls on 10 x 10 arrays, like the k, n <= 10 solves."""
    a, spd, v = _matrices(10)
    for _ in range(300):
        c = spd @ a.T + np.outer(v, v)
        np.linalg.solve(spd, v)
        np.linalg.cholesky(spd)
        np.kron(a[:3, :3], a[:3, :3]).sum(axis=0)
        np.maximum(np.abs(c - a), 1.0).max()


def dense() -> None:
    """One Cholesky factorization at n = 1000, the working set of the large-n solve."""
    np.linalg.cholesky(_matrices(1000)[1])


def process() -> None:
    """A fresh interpreter that imports numpy, like a cold CLI call or set-up."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


KERNELS = {"interpreter": interpreter, "small_arrays": small_arrays, "dense": dense, "process": process}

# Seconds each kernel takes at the reference speed: its fast-stretch median
# on the machine the benchmark was written on (Intel Xeon, 2 vCPUs, BLAS on
# one thread).  Fixed constants: they only set the scale of the reported
# numbers, never their ratio between two commits.
REFERENCE_S = {"interpreter": 0.0125, "small_arrays": 0.02, "dense": 0.035, "process": 0.15}


def timed(name: str) -> float:
    """Wall seconds of one run of kernel ``name``."""
    kernel = KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
