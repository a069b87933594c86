"""Host-speed calibration for the timed ops.

On a shared host the same code runs at speeds up to about 1.75x apart, each
CPU switching on its own every few seconds. A fixed kernel that resembles the
ops, timed next to each op, tracks that speed. Scaled by the small kernel,
certify's wall_s spread by 0.03 of its median over ten seeds; its best raw
round had spread by 0.40 over five. For the threaded rank-one sweeps the batch
kernel tracks better than the small one: the quartile range of one sweep's
time was 0.14 of its median with it, 0.24 with the small kernel, 0.31 raw.

The kernels avoid eigh, eigvalsh and eigvals, which the tracer counts.
"""
from __future__ import annotations

import os
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_MATRICES = [(lambda a: a @ a.T + np.eye(4))(_rng.standard_normal((4, 4))) for _ in range(8)]
_DRAWS = _rng.standard_normal((16384, 8))
_FORM = np.eye(4) + 0.1


def small_kernel() -> float:
    """Time small factorisations and a Python loop, like the bound and
    search ops."""
    start = perf_counter()
    for _ in range(4):
        for m in _MATRICES:
            np.linalg.svd(m)
            np.linalg.cholesky(m)
        s = 0
        for i in range(600):
            s += i * i % 7
    return perf_counter() - start


def batch_kernel() -> float:
    """Time vectorised products and quadratic forms over a batch of draws,
    like the rank-one sweep."""
    start = perf_counter()
    for _ in range(3):
        H, G = _DRAWS[:, :4], _DRAWS[:, 4:]
        prod = H * G
        bound = np.abs(prod[:, :2].sum(axis=1)) + np.abs(prod[:, 2:].sum(axis=1))
        gval = np.einsum("ti,ij,tj->t", H, _FORM, H) + np.einsum("ti,ij,tj->t", G, _FORM, G)
        int(np.argmax(bound - gval))
    return perf_counter() - start


# Each kernel with its time at the faster of the two speeds of a 2-core
# x86-64 cloud VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31). Scaled times read
# as seconds at that speed.
KERNELS = {"small": (small_kernel, 0.0010), "batch": (batch_kernel, 0.011)}


class Calibrator:
    """Time of the named kernel on the given CPUs.

    With one CPU the process is pinned to it, so ops and kernel share it. With
    several, the calling thread visits each in turn and the kernel times are
    combined as a harmonic mean, since threads that share work finish at the
    pace of the CPUs' summed speeds.
    """

    def __init__(self, cpus: list[int], kernel: str):
        self.cpus = cpus
        self.kernel, self.ref_s = KERNELS[kernel]
        if len(cpus) == 1:
            os.sched_setaffinity(0, cpus)

    def __call__(self) -> float:
        if len(self.cpus) == 1:
            return self.kernel()
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self.kernel())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return len(times) / sum(1.0 / t for t in times)

    def scale(self, before: float, after: float) -> float:
        """Factor that turns an op's time, bracketed by two kernel times,
        into seconds at the reference speed."""
        return 2.0 * self.ref_s / (before + after)
