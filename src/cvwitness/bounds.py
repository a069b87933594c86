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

from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import PSD_TOL, NotPSD, _frozen, quantum_bound, symmetrize
from .partitions import (
    Partition,
    PartitionError,
    _partition_list,
    free_mask,
    symmetric_bipartition_representatives,
)
from .states import CVState


@dataclass(frozen=True, eq=False)
class WitnessPair:
    """Symmetric PSD pair (X, P) defining G = tr(X gxx) + tr(P gpp)."""

    X: np.ndarray
    P: np.ndarray
    # The vectors of a pair made by rank_one; None for any other pair.
    h: np.ndarray | None = field(default=None, init=False, repr=False)
    g: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        X = symmetrize(np.asarray(self.X, dtype=float))
        P = symmetrize(np.asarray(self.P, dtype=float))
        if X.shape != P.shape:
            raise ValueError(f"X and P shapes differ: {X.shape} vs {P.shape}")
        for name, M in (("X", X), ("P", P)):
            low = float(np.linalg.eigvalsh(M)[0])
            if low < -PSD_TOL:
                raise NotPSD(low, f"witness {name}")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "P", _frozen(P))

    @classmethod
    def rank_one(cls, h, g) -> "WitnessPair":
        """X = hh^T and P = gg^T, PSD by construction and so not checked."""
        h, g = np.array(h, dtype=float), np.array(g, dtype=float)
        X, P = np.outer(h, h), np.outer(g, g)
        if h.ndim != 1 or h.shape != g.shape or not np.isfinite([X, P]).all():
            raise ValueError(f"h and g must be finite and alike: {h.shape}, {g.shape}")
        w = object.__new__(cls)
        for name, v in (("X", X), ("P", P), ("h", h), ("g", g)):
            object.__setattr__(w, name, _frozen(v))
        return w

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


def separability_bound(w: WitnessPair, p: Partition) -> BoundResult:
    """Partition bound B_p(X, P) = sum over blocks b of B(X_bb, P_bb).

    Proof of the closed form: a p-separable state is a mixture of block
    products, on which G splits into per-block terms tr(X_bb gxx_bb) +
    tr(P_bb gpp_bb), each at least B(X_bb, P_bb); a product of per-block
    minimizers attains every term, so no larger bound holds. The block terms
    are added in block order, starting from 0.0. A rank-one pair takes the
    closed form rank_one_bound: B(h_b h_b^T, g_b g_b^T) = |<h_b, g_b>|.

    The certificate is the witness with its cross-block entries zeroed: it
    keeps every within-block entry of (X, P) exactly, stays PSD, and its
    quantumness bound equals the returned value.
    """
    _partition_list(p, w.n, "witness")
    if w.h is not None:
        value = rank_one_bound(w.h, w.g, p)
    else:
        value = 0.0
        for idx in p.indices:
            value += quantum_bound(w.X[idx[:, None], idx], w.P[idx[:, None], idx])
    mask = free_mask(p)
    return BoundResult(value, *(_frozen(np.where(mask, 0.0, M)) for M in (w.X, w.P)))


def rank_one_bound(
    h: np.ndarray, g: np.ndarray, p: Partition | Sequence[Partition]
) -> float | np.ndarray:
    """Partition bound for the rank-one pair X=hh^T, P=gg^T: sum over blocks
    of |sum_{i in block} h_i g_i|; never below |<h,g>|. Vectors give a float,
    stacked (t, n) rows t values, a sequence of partitions an axis in front.
    Block sums add modes in ascending order, then blocks in order, each from
    0.0, so every value has the bits of its own vector and partition."""
    h, g = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    if h.shape != g.shape or h.ndim not in (1, 2):
        raise ValueError(f"h and g must be vectors or rows alike: {h.shape}, {g.shape}")
    parts = _partition_list(p, h.shape[-1], "witness")
    prod, rest = h * g, h.shape[:-1]
    labels = np.array([q.labels for q in parts], dtype=int)
    kmax = int(labels.max(initial=-1)) + 1
    slots = (labels + kmax * np.arange(len(parts))[:, None]).T  # (n, parts)
    sums = np.zeros((len(parts) * kmax,) + rest)
    for i, slot in enumerate(slots):
        sums[slot] += prod[..., i]
    sums = np.abs(sums).reshape((len(parts), kmax) + rest)
    # a partition with fewer blocks adds +0.0
    total = sum((sums[:, b] for b in range(kmax)), np.zeros((len(parts),) + rest))
    total = total[0] if isinstance(p, Partition) else total
    return float(total) if total.ndim == 0 else total


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
    _partition_list(p, s.n)
    if p.k > 12:
        raise PartitionError(f"the LMI test needs at most 12 blocks, got {p.k}")
    n = s.n
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = s.gamma_xx
    M[n:, n:] = s.gamma_pp
    lowest = np.inf
    worst: tuple[int, ...] = (1,) * n
    for tail in product((1, -1), repeat=p.k - 1):
        eps = np.array((1,) + tail)[p.labels]
        M[:n, n:] = M[n:, :n] = np.diag(eps / 2.0)
        low = float(np.linalg.eigvalsh(M)[0])
        if low < lowest:
            lowest = low
            worst = tuple(eps.tolist())
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
