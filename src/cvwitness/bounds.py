"""Separability bounds on the second-moment witness value G.

The central quantity is the partition bound B_I(X, P): the maximum of the
quantumness bound over all witnesses that agree with (X, P) on within-block
entries while the cross-block entries run free. It has the closed form
B_I(X, P) = sum over blocks b of B(X_bb, P_bb), a float from
separability_bound, attained by the block-diagonal witness that
_block_certificate builds. Any state separable with respect to partition I
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


def separability_bound(w: WitnessPair, p: Partition) -> float:
    """Partition bound B_p(X, P) = sum over blocks b of B(X_bb, P_bb).

    Proof of the closed form: a p-separable state is a mixture of block
    products, on which G splits into per-block terms tr(X_bb gxx_bb) +
    tr(P_bb gpp_bb), each at least B(X_bb, P_bb); a product of per-block
    minimizers attains every term, so no larger bound holds. The block terms
    are added in block order, starting from 0.0. A rank-one pair takes the
    closed form rank_one_bound: B(h_b h_b^T, g_b g_b^T) = |<h_b, g_b>|.
    _block_certificate gives the block-diagonal witness that attains it.
    """
    _partition_list(p, w.n, "witness")
    if w.h is not None:
        return rank_one_bound(w.h, w.g, p)
    value = 0.0
    for idx in p.indices:
        value += quantum_bound(w.X[idx[:, None], idx], w.P[idx[:, None], idx])
    return value


def _block_certificate(w: WitnessPair, p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(X, P) with the cross-block entries of p zeroed: it keeps every
    within-block entry exactly, stays PSD, and its quantumness bound is
    separability_bound(w, p)."""
    return tuple(np.where(free_mask(p), 0.0, M) for M in (w.X, w.P))


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

    A state separable w.r.t. p keeps M_E = [[gxx, E/2], [E/2, gpp]] PSD for
    every diagonal sign matrix E constant on blocks. Decomposes the 2^(k-1)
    patterns' M_E (the first block fixed to +1, as global sign is irrelevant)
    as one stack and returns (violated, most negative eigenvalue, per-mode worst
    pattern, the first on a tie). At most 12 blocks keep the stack tractable.
    For v = (h, g), B_p(hh^T, gg^T) - G = max_E -v^T M_E v: minus the most
    negative eigenvalue is the largest raw margin of a unit rank-one witness,
    attained by the worst pattern's eigenvector (witness.rank_one_optimum).
    """
    _partition_list(p, s.n)
    if p.k > 12:
        raise PartitionError(f"the LMI test needs at most 12 blocks, got {p.k}")
    n, i = s.n, np.arange(s.n)
    eps = np.array([(1,) + t for t in product((1, -1), repeat=p.k - 1)])[:, p.labels]
    M = np.zeros((len(eps), 2 * n, 2 * n))
    M[:, :n, :n] = s.gamma_xx
    M[:, n:, n:] = s.gamma_pp
    M[:, i, n + i] = M[:, n + i, i] = eps / 2.0
    low = np.linalg.eigvalsh(M)[:, 0]
    worst = int(np.argmin(low))  # the first of tied minima
    return bool(low[worst] < -PSD_TOL), float(low[worst]), tuple(eps[worst].tolist())


def analytic_biseparable_bound(n: int) -> float:
    """Closed-form lower bound on G for biseparable n-mode states (n >= 3)."""
    if n < 3:
        raise ValueError(f"analytic biseparable bound needs n >= 3, got {n}")
    q = (n - 1) * np.sqrt(n * (n - 2))
    return float(q + 4 * (n - 1) / (np.sqrt(n) * (np.sqrt(2 * n - 2) + np.sqrt(n - 2))))


def symmetric_witness(n: int) -> WitnessPair:
    """Permutation-symmetric witness: X = (n-2)I + ones, P = nI - ones, for
    2 <= n <= 32, the small matrices the package is built for (see linalg);
    any other n raises ValueError before a matrix is made."""
    if not 2 <= n <= 32:
        raise ValueError(f"symmetric witness needs 2 <= n <= 32, got {n}")
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
        b = min(separability_bound(w, rep) for rep in symmetric_bipartition_representatives(n))
    f = separability_bound(w, Partition.singletons(n))
    return Table1Row(float(q), a, b, float(f))
