"""Separability bounds on the second-moment witness value G.

The central quantity is the partition bound B_I(X, P): the maximum of the
quantumness bound over all witnesses that agree with (X, P) on within-block
entries while the cross-block entries run free. It has the closed form
B_I(X, P) = sum over blocks b of B(X_bb, P_bb), attained by the
block-diagonal witness. Any state separable with respect to partition I
satisfies G >= B_I(X, P), so a measured G below the bound certifies
entanglement across I.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .linalg import PSD_TOL, NotPSD, quantum_bound, symmetrize
from .partitions import (
    Partition,
    PartitionError,
    free_mask,
    symmetric_bipartition_representatives,
)
from .states import CVState


@dataclass(frozen=True, eq=False)
class WitnessPair:
    """Symmetric PSD pair (X, P) defining G = tr(X gxx) + tr(P gpp)."""

    X: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        X = symmetrize(np.asarray(self.X, dtype=float))
        P = symmetrize(np.asarray(self.P, dtype=float))
        if X.shape != P.shape:
            raise ValueError(f"X and P shapes differ: {X.shape} vs {P.shape}")
        for name, M in (("X", X), ("P", P)):
            low = float(np.linalg.eigvalsh(M)[0])
            if low < -PSD_TOL:
                raise NotPSD(low, f"witness {name}")
        X.flags.writeable = False
        P.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Partition bound and the block-diagonal witness attaining it."""

    value: float
    certificate_X: np.ndarray
    certificate_P: np.ndarray


class Table1Row(NamedTuple):
    q: float
    a: float | None
    b: float | None
    f: float


def evaluate_G(w: WitnessPair, s: CVState) -> float:
    """G = tr(X gamma_xx) + tr(P gamma_pp)."""
    if w.n != s.n:
        raise ValueError(f"witness is {w.n}-mode but state is {s.n}-mode")
    return float(np.sum(w.X * s.gamma_xx) + np.sum(w.P * s.gamma_pp))


def block_indices(p: Partition) -> list[np.ndarray]:
    """0-based index arrays of the blocks of p."""
    return [np.array(block, dtype=int) - 1 for block in p.blocks]


def separability_bound(w: WitnessPair, p: Partition) -> BoundResult:
    """Partition bound B_p(X, P) = sum over blocks b of B(X_bb, P_bb).

    Proof of the closed form: a p-separable state is a mixture of block
    products, on which G splits into per-block terms tr(X_bb gxx_bb) +
    tr(P_bb gpp_bb), each at least B(X_bb, P_bb); a product of per-block
    minimizers attains every term, so no larger bound holds. The block terms
    are added in block order, starting from 0.0.

    The certificate is the witness with its cross-block entries zeroed: it
    keeps every within-block entry of (X, P) exactly, stays PSD, and its
    quantumness bound equals the returned value.
    """
    if w.n != p.n:
        raise ValueError(f"witness is {w.n}-mode but partition is over {p.n}")
    value = 0.0
    for idx in block_indices(p):
        value += quantum_bound(w.X[idx[:, None], idx], w.P[idx[:, None], idx])
    mask = free_mask(p).mask
    X0 = np.where(mask, 0.0, w.X)
    P0 = np.where(mask, 0.0, w.P)
    X0.flags.writeable = False
    P0.flags.writeable = False
    return BoundResult(value, X0, P0)


def rank_one_bound(h: np.ndarray, g: np.ndarray, p: Partition) -> float | np.ndarray:
    """Partition bound for the rank-one pair X=hh^T, P=gg^T: sum over blocks
    of |sum_{i in block} h_i g_i|; never below |<h,g>|. Vectors give a float,
    stacked (t, n) rows t values, each with the bits of its own vector."""
    h, g = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    if h.shape != g.shape or h.ndim not in (1, 2):
        raise ValueError(f"h and g must be vectors or rows alike: {h.shape}, {g.shape}")
    if h.shape[-1] != p.n:
        raise ValueError(f"h and g have {h.shape[-1]} modes, partition has {p.n}")
    prod = h * g  # each block is summed left to right, whatever the row count
    total = sum(np.abs(sum(prod[..., i] for i in b)) for b in block_indices(p))
    return float(total) if h.ndim == 1 else total


def lmi_separability_test(
    s: CVState, p: Partition
) -> tuple[bool, float, tuple[int, ...]]:
    """Sign-matrix separability test.

    A state separable w.r.t. p keeps [[gxx, E/2], [E/2, gpp]] PSD for every
    diagonal sign matrix E constant on blocks. Enumerates the 2^(k-1)
    patterns (global sign is irrelevant; the first block is fixed to +1) and
    returns (violated, most negative eigenvalue found, per-mode worst pattern).
    The block count is capped at 12 to keep the enumeration tractable.
    """
    if s.n != p.n:
        raise ValueError(f"state is {s.n}-mode but partition is over {p.n}")
    if p.k > 12:
        raise PartitionError(f"the LMI test needs at most 12 blocks, got {p.k}")
    n = s.n
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = s.gamma_xx
    M[n:, n:] = s.gamma_pp
    lowest = np.inf
    worst: tuple[int, ...] = (1,) * n
    for tail in product((1, -1), repeat=p.k - 1):
        eps = np.empty(n)
        for block, sign in zip(p.blocks, (1,) + tail):
            for i in block:
                eps[i - 1] = sign
        M[:n, n:] = np.diag(eps / 2.0)
        M[n:, :n] = M[:n, n:]
        low = float(np.linalg.eigvalsh(M)[0])
        if low < lowest:
            lowest = low
            worst = tuple(int(e) for e in eps)
    return lowest < -PSD_TOL, float(lowest), worst


def analytic_biseparable_bound(n: int) -> float:
    """Closed-form lower bound on G for biseparable n-mode states (n >= 3)."""
    if n < 3:
        raise ValueError(f"analytic biseparable bound needs n >= 3, got {n}")
    q = (n - 1) * np.sqrt(n * (n - 2))
    return float(q + 4 * (n - 1) / (np.sqrt(n) * (np.sqrt(2 * n - 2) + np.sqrt(n - 2))))


def symmetric_witness(n: int) -> WitnessPair:
    """Permutation-symmetric witness: X = (n-2)I + ones, P = nI - ones."""
    if n < 2:
        raise ValueError(f"symmetric witness needs n >= 2, got {n}")
    J = np.ones((n, n))
    return WitnessPair((n - 2) * np.eye(n) + J, n * np.eye(n) - J)


def table1_bounds(n: int) -> Table1Row:
    """Benchmark bounds for the symmetric witness.

    q: quantumness bound; a: analytic biseparable bound (n >= 3);
    b: best biseparable bound over bipartition representatives (n >= 3);
    f: full-separability bound, n(n-1) for this witness.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"table covers 2 <= n <= 8, got {n}")
    w = symmetric_witness(n)
    q = quantum_bound(w.X, w.P)
    a = analytic_biseparable_bound(n) if n >= 3 else None
    b = None
    if n >= 3:
        b = min(
            separability_bound(w, rep).value
            for rep in symmetric_bipartition_representatives(n)
        )
    f = separability_bound(w, Partition.singletons(n)).value
    return Table1Row(float(q), a, b, float(f))
