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
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    PSD_TOL,
    NotPSD,
    SingularGradient,
    quantum_bound,
    quantum_bound_gradient,
    quantum_bound_gradient_stack,
    quantum_bound_stack,
    symmetrize,
)
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


def _min_eig(A: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(A)[0])


def block_indices(p: Partition) -> list[np.ndarray]:
    """0-based index arrays of the blocks of p."""
    return [np.array(block, dtype=int) - 1 for block in p.blocks]


class BlockPlan:
    """The blocks of one or more partitions, gathered by block size.

    Each group holds the gather indices that stack every block of one size
    as a (g, k, k) array, X[rows, cols], plus the partition each block
    belongs to and its position there. A search builds its plan once.
    """

    def __init__(self, partitions: Sequence[Partition]):
        by_size: dict[int, list[tuple[int, int, np.ndarray]]] = {}
        for j, p in enumerate(partitions):
            for i, idx in enumerate(block_indices(p)):
                by_size.setdefault(idx.size, []).append((j, i, idx))
        self.count = len(partitions)
        self.width = max((p.k for p in partitions), default=0)
        self.groups = []
        for entries in by_size.values():
            owner, pos, idx = (np.array(column) for column in zip(*entries))
            self.groups.append((idx[:, :, None], idx[:, None, :], owner, pos))


def partition_bound(
    X: np.ndarray, P: np.ndarray, plan: BlockPlan, *, gradient: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """B_I(X, P) = sum over blocks b of B(X_bb, P_bb), the one definition of B_I.

    Proof of the closed form: an I-separable state is a mixture of block
    products, on which G splits into per-block terms tr(X_bb gxx_bb) +
    tr(P_bb gpp_bb), each at least B(X_bb, P_bb); a product of per-block
    minimizers attains every term, so no larger bound holds.

    Returns (values, gX, gP), values[j] being B_I for the j-th partition of
    the plan. Each block size takes one stacked kernel call, and the block
    terms are added in block order, so every value has the bits of a sum of
    one quantum_bound call per block. With gradient=True, gX[j] and gP[j]
    are assembled from the per-block gradients (cross-block entries have
    zero gradient); otherwise they are None and no gradient is computed.
    """
    terms = np.zeros((plan.width, plan.count))
    gX = np.zeros((plan.count,) + X.shape) if gradient else None
    gP = np.zeros((plan.count,) + P.shape) if gradient else None
    for rows, cols, owner, pos in plan.groups:
        A, B = X[rows, cols], P[rows, cols]
        terms[pos, owner] = quantum_bound_stack(A, B)
        if gradient:
            dA, dB, singular = quantum_bound_gradient_stack(A, B)
            for i in np.flatnonzero(singular):
                dA[i], dB[i] = _safe_gradient(A[i], B[i])
            gX[owner[:, None, None], rows, cols] = dA
            gP[owner[:, None, None], rows, cols] = dB
    values = np.zeros(plan.count)
    for row in terms:
        values += row
    return values, gX, gP


def _safe_gradient(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the quantumness bound for a block whose unshifted gradient
    is singular, shifting it just enough to regularize (iterates may sit on
    the PSD boundary)."""
    eye = np.eye(A.shape[0])
    for shift in (1e-11, 1e-8, 1e-5, 1e-3):
        try:
            return quantum_bound_gradient(A + shift * eye, B + shift * eye)
        except SingularGradient:
            continue
    return np.zeros_like(A), np.zeros_like(B)


def separability_bound(w: WitnessPair, p: Partition) -> BoundResult:
    """Partition bound B_p(X, P) in closed form (see partition_bound).

    The certificate is the witness with its cross-block entries zeroed: it
    keeps every within-block entry of (X, P) exactly, stays PSD, and its
    quantumness bound equals the returned value.
    """
    if w.n != p.n:
        raise ValueError(f"witness is {w.n}-mode but partition is over {p.n}")
    mask = free_mask(p).mask
    X0 = np.where(mask, 0.0, w.X)
    P0 = np.where(mask, 0.0, w.P)
    X0.flags.writeable = False
    P0.flags.writeable = False
    values, _, _ = partition_bound(w.X, w.P, BlockPlan([p]))
    return BoundResult(float(values[0]), X0, P0)


def rank_one_bound(h: np.ndarray, g: np.ndarray, p: Partition) -> float:
    """Partition bound for the rank-one pair X=hh^T, P=gg^T: sum over blocks
    of |sum_{i in block} h_i g_i|; never below |<h,g>|."""
    h = np.asarray(h, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    if h.shape != g.shape:
        raise ValueError(f"h and g lengths differ: {h.size} vs {g.size}")
    if h.size != p.n:
        raise ValueError(f"vectors have {h.size} modes but partition is over {p.n}")
    prod = h * g
    return float(sum(abs(prod[[i - 1 for i in block]].sum()) for block in p.blocks))


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
        low = _min_eig(M)
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
