"""Stacked block-bound kernel: values, gradients, exactness and input checks.

The oracles share no code with the kernel: B(X, P) = ||F_X^T F_P||_* for any
factors X = F_X F_X^T, P = F_P F_P^T (an SVD of a small product), the 1x1
closed forms, and central finite differences of that oracle.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness.bounds import BlockPlan, block_indices, partition_bound
from cvwitness.linalg import (
    NotPSD,
    SingularGradient,
    quantum_bound,
    quantum_bound_gradient,
    quantum_bound_gradient_stack,
    quantum_bound_stack,
)
from cvwitness.partitions import Partition, all_partitions


def _factor(gen: np.random.Generator, n: int, rank: int) -> np.ndarray:
    return gen.standard_normal((n, rank))


def _nuclear(FX: np.ndarray, FP: np.ndarray) -> float:
    return float(np.linalg.svd(FX.T @ FP, compute_uv=False).sum())


def _oracle(FX: np.ndarray, FP: np.ndarray, p: Partition) -> float:
    # Rows of a factor of X restricted to a block factor the block X_bb.
    return sum(_nuclear(FX[idx], FP[idx]) for idx in block_indices(p))


def _stack(gen: np.random.Generator, m: int, k: int, floor: float = 0.0):
    R = gen.standard_normal((2, m, k, k))
    A = R @ R.transpose(0, 1, 3, 2) + floor * np.eye(k)
    return A[0], A[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_values_match_nuclear_norm_oracle(n):
    # One plan holds every partition of n, so each stack mixes blocks of many
    # partitions. Low-rank factors make some blocks rank-deficient, and the
    # singleton blocks take the 1x1 path.
    gen = np.random.default_rng(100 + n)
    parts = all_partitions(n)
    plan = BlockPlan(parts)
    for rank in range(1, n + 1):
        FX, FP = _factor(gen, n, rank), _factor(gen, n, n + 1 - rank)
        values, gX, gP = partition_bound(FX @ FX.T, FP @ FP.T, plan)
        assert gX is None and gP is None
        assert values.shape == (len(parts),)
        for p, got in zip(parts, values):
            assert got == pytest.approx(_oracle(FX, FP, p), rel=1e-8, abs=1e-8), p.text


def _eigen_path(A: np.ndarray, B: np.ndarray) -> float:
    # B(A, B) spelled out per matrix: eigh of A, then eigvalsh of
    # sqrt(A) B sqrt(A), with the 1e-13 relative noise floor.
    w, V = np.linalg.eigh(A)
    sA = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    inner = np.clip(np.linalg.eigvalsh(sA @ B @ sA), 0.0, None)
    if inner[-1] > 0.0:
        inner[inner < 1e-13 * inner[-1]] = 0.0
    return float(np.sqrt(inner).sum())


def test_stacked_call_equals_one_block_calls_exactly():
    gen = np.random.default_rng(7)
    for k in range(1, 6):
        for floor in (0.0, 0.3):
            X, P = _stack(gen, 9, k, floor)
            X[2] = np.outer(X[2][0], X[2][0])  # a rank-one block
            values = quantum_bound_stack(X, P)
            # k = 1 takes sqrt(sqrt(x) p sqrt(x)), bit-identical to the eigen path.
            want = [_eigen_path(A, B) for A, B in zip(X, P)]
            assert [float(v) for v in values] == want
            assert [quantum_bound(A, B) for A, B in zip(X, P)] == want
            dX, dP, singular = quantum_bound_gradient_stack(X, P)
            for i in range(len(X)):
                if singular[i]:
                    with pytest.raises(SingularGradient):
                        quantum_bound_gradient(X[i], P[i])
                    continue
                gX, gP = quantum_bound_gradient(X[i], P[i])
                assert np.array_equal(dX[i], gX) and np.array_equal(dP[i], gP)
            assert singular[2] == (k > 1)


def test_partition_bound_equals_sum_of_block_calls_exactly():
    # The searches' paths depend on these bits: a plan over many partitions
    # gives each one the in-order sum of one quantum_bound call per block.
    gen = np.random.default_rng(11)
    for n in (3, 4, 5):
        parts = all_partitions(n)
        plan = BlockPlan(parts)
        X, P = (M[0] for M in _stack(gen, 1, n, 0.1))
        values, gX, gP = partition_bound(X, P, plan, gradient=True)
        for j, p in enumerate(parts):
            want = 0.0
            wX, wP = np.zeros((n, n)), np.zeros((n, n))
            for idx in block_indices(p):
                ix = np.ix_(idx, idx)
                want += quantum_bound(X[ix], P[ix])
                wX[ix], wP[ix] = quantum_bound_gradient(X[ix], P[ix])
            assert values[j] == want, p.text
            assert np.array_equal(gX[j], wX) and np.array_equal(gP[j], wP), p.text
            single, _, _ = partition_bound(X, P, BlockPlan([p]))
            assert single[0] == want


def test_one_by_one_gradient_closed_form():
    gen = np.random.default_rng(13)
    x = gen.uniform(0.05, 4.0, 40)
    p = gen.uniform(0.05, 4.0, 40)
    dX, dP, singular = quantum_bound_gradient_stack(x[:, None, None], p[:, None, None])
    assert not singular.any()
    assert dX[:, 0, 0] == pytest.approx(0.5 * np.sqrt(p / x), rel=1e-12)
    assert dP[:, 0, 0] == pytest.approx(0.5 * np.sqrt(x / p), rel=1e-12)
    assert quantum_bound_stack(x[:, None, None], p[:, None, None]) == pytest.approx(
        np.sqrt(x * p), rel=1e-14
    )
    # Through partition_bound: full separability gives a diagonal gradient.
    n = 5
    X, P = (M[0] for M in _stack(gen, 1, n, 0.2))
    plan = BlockPlan([Partition.singletons(n)])
    _, (gX,), (gP,) = partition_bound(X, P, plan, gradient=True)
    d, e = np.diag(X), np.diag(P)
    assert gX == pytest.approx(np.diag(0.5 * np.sqrt(e / d)), rel=1e-12, abs=1e-15)
    assert gP == pytest.approx(np.diag(0.5 * np.sqrt(d / e)), rel=1e-12, abs=1e-15)


def test_gradients_match_finite_differences_of_oracle():
    # X and P are PD here, so Cholesky factors feed the oracle at every
    # perturbed point.
    gen = np.random.default_rng(17)
    t = 1e-6
    for n in (2, 3, 4, 5):
        parts = [p for p in all_partitions(n) if max(map(len, p.blocks)) >= 2]
        plan = BlockPlan(parts)
        X, P = (M[0] for M in _stack(gen, 1, n, 0.5))
        _, gX, gP = partition_bound(X, P, plan, gradient=True)
        for j, p in enumerate(parts):
            D = gen.standard_normal((n, n))
            D = D + D.T

            def oracle(A, B):
                return _oracle(np.linalg.cholesky(A), np.linalg.cholesky(B), p)

            fd_x = (oracle(X + t * D, P) - oracle(X - t * D, P)) / (2 * t)
            fd_p = (oracle(X, P + t * D) - oracle(X, P - t * D)) / (2 * t)
            assert fd_x == pytest.approx(float(np.sum(gX[j] * D)), rel=1e-5, abs=1e-6)
            assert fd_p == pytest.approx(float(np.sum(gP[j] * D)), rel=1e-5, abs=1e-6)


def test_singular_lanes_are_flagged_without_touching_the_others():
    # Zero, rank-deficient and slightly negative blocks sit in the same stack
    # as regular ones; the suite turns any RuntimeWarning from their masked
    # lanes into a failure.
    gen = np.random.default_rng(19)
    X, P = _stack(gen, 6, 3, 0.2)
    X[1] = 0.0
    P[3] = np.diag([1.0, 2.0, 0.0])
    X[4] = np.diag([1.0, -1e-11, 2.0])
    dX, dP, singular = quantum_bound_gradient_stack(X, P)
    assert singular.tolist() == [False, True, False, True, True, False]
    assert np.isfinite(dX[~singular]).all() and np.isfinite(dP[~singular]).all()
    for i in np.flatnonzero(~singular):
        gX, gP = quantum_bound_gradient(X[i], P[i])
        assert np.array_equal(dX[i], gX) and np.array_equal(dP[i], gP)
    # partition_bound falls back per block and still returns a finite gradient.
    W = np.zeros((6, 6))
    W[:3, :3] = X[0]
    V = np.zeros((6, 6))
    V[:3, :3] = P[0]
    V[3:, 3:] = P[5]
    plan = BlockPlan([Partition.of([[1, 2, 3], [4, 5, 6]], 6)])
    values, gX, gP = partition_bound(W, V, plan, gradient=True)
    assert values[0] == pytest.approx(quantum_bound(X[0], P[0]))
    assert np.isfinite(gX).all() and np.isfinite(gP).all()
    # A zero 1x1 block takes the first regular shift of the ladder, 1e-11,
    # where the 1x1 closed form applies.
    x, p = np.array([2.0, 0.0, 1.0]), np.array([1.0, 3.0, 1.0])
    _, (gX,), (gP,) = partition_bound(
        np.diag(x), np.diag(p), BlockPlan([Partition.singletons(3)]), gradient=True
    )
    x[1], p[1] = 1e-11, 3.0 + 1e-11
    assert np.diag(gX) == pytest.approx(0.5 * np.sqrt(p / x), rel=1e-9)
    assert np.diag(gP) == pytest.approx(0.5 * np.sqrt(x / p), rel=1e-9)


def test_bad_block_inside_a_stack_still_raises():
    gen = np.random.default_rng(23)
    for k in (1, 2, 3):
        X, P = _stack(gen, 5, k, 0.1)
        bad = X.copy()
        bad[3] -= (np.linalg.eigvalsh(bad[3])[-1] + 1.0) * np.eye(k)
        with pytest.raises(NotPSD) as info:
            quantum_bound_stack(bad, P)
        assert info.value.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(bad[3])[0])
        with pytest.raises(NotPSD):
            quantum_bound_stack(X, bad)
        nan = P.copy()
        nan[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            quantum_bound_stack(X, nan)
        inf = X.copy()
        inf[4, -1, -1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            quantum_bound_gradient_stack(inf, P)
    # Through partition_bound: only within-block entries are read.
    plan = BlockPlan([Partition.of([[1], [2, 3], [4]], 4)])
    X = np.eye(4)
    X[1, 1] = -1e-3
    with pytest.raises(NotPSD):
        partition_bound(X, np.eye(4), plan)
    X = np.eye(4)
    X[2, 1] = X[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        partition_bound(X, np.eye(4), plan, gradient=True)
    X = np.eye(4)
    X[0, 3] = X[3, 0] = np.nan
    values, _, _ = partition_bound(X, np.eye(4), plan)
    assert values[0] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        quantum_bound_stack(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        quantum_bound_stack(np.ones((2, 2, 2)), np.ones((3, 2, 2)))
