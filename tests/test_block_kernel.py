"""Per-block bound kernel: quantum_bound values, exactness and input checks,
the partition bound as a sum of its blocks, and its derivative as the dual
matrix of the one-block lift (conftest.py).

The oracles share no code with the kernel: B(X, P) = ||F_X^T F_P||_* for any
factors X = F_X F_X^T, P = F_P F_P^T (an SVD of a small product), the 1x1
closed forms, and central finite differences of that oracle.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness.bounds import WitnessPair, separability_bound
from cvwitness import sdp
from cvwitness.linalg import NotPSD, quantum_bound
from cvwitness.partitions import Partition, all_partitions


def _factor(gen: np.random.Generator, n: int, rank: int) -> np.ndarray:
    return gen.standard_normal((n, rank))


def _nuclear(FX: np.ndarray, FP: np.ndarray) -> float:
    return float(np.linalg.svd(FX.T @ FP, compute_uv=False).sum())


def _oracle(FX: np.ndarray, FP: np.ndarray, p: Partition) -> float:
    # Rows of a factor of X restricted to a block factor the block X_bb.
    return sum(_nuclear(FX[idx], FP[idx]) for idx in p.indices)


def _stack(gen: np.random.Generator, m: int, k: int, floor: float = 0.0):
    R = gen.standard_normal((2, m, k, k))
    A = R @ R.transpose(0, 1, 3, 2) + floor * np.eye(k)
    return A[0], A[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_values_match_nuclear_norm_oracle(n):
    # Every partition of n. Low-rank factors make some blocks rank-deficient,
    # and the singleton blocks take the 1x1 path.
    gen = np.random.default_rng(100 + n)
    for rank in range(1, n + 1):
        FX, FP = _factor(gen, n, rank), _factor(gen, n, n + 1 - rank)
        w = WitnessPair(FX @ FX.T, FP @ FP.T)
        for p in all_partitions(n):
            got = separability_bound(w, p).value
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
            # k = 1 takes sqrt(sqrt(x) p sqrt(x)), bit-identical to the eigen path.
            want = [_eigen_path(A, B) for A, B in zip(X, P)]
            assert [quantum_bound(A, B) for A, B in zip(X, P)] == want


def test_partition_bound_equals_sum_of_block_calls_exactly():
    # Reported bounds depend on these bits: each partition gets the in-order
    # sum of one quantum_bound call per block.
    gen = np.random.default_rng(11)
    for n in (3, 4, 5):
        X, P = (M[0] for M in _stack(gen, 1, n, 0.1))
        w = WitnessPair(X, P)
        for p in all_partitions(n):
            want = 0.0
            for idx in p.indices:
                ix = np.ix_(idx, idx)
                want += quantum_bound(X[ix], P[ix])
            assert separability_bound(w, p).value == want, p.text


def test_one_by_one_gradient_closed_form(dual_gradient, closed_form_gradient):
    # The closed form meets the 1x1 forms to 1e-12, the dual to the solver's
    # acceptance level.
    gen = np.random.default_rng(13)
    x = gen.uniform(0.05, 4.0, 40)
    p = gen.uniform(0.05, 4.0, 40)
    for a, b in zip(x, p):
        wX, wP = 0.5 * np.sqrt(b / a), 0.5 * np.sqrt(a / b)
        (cX,), (cP,) = closed_form_gradient([[a]], [[b]])
        assert cX == pytest.approx(wX, rel=1e-12)
        assert cP == pytest.approx(wP, rel=1e-12)
        tol = sdp._ACCEPT * (1 + np.sqrt(a * b))
        (dX,), (dP,) = dual_gradient([[a]], [[b]])
        assert dX == pytest.approx(wX, rel=0, abs=tol)
        assert dP == pytest.approx(wP, rel=0, abs=tol)
    assert [quantum_bound([[a]], [[b]]) for a, b in zip(x, p)] == pytest.approx(
        np.sqrt(x * p), rel=1e-14
    )
    # Commuting diagonal pairs: the gradient is the diagonal of 1x1 forms.
    d, e = gen.uniform(0.2, 3.0, (2, 5))
    wX, wP = np.diag(0.5 * np.sqrt(e / d)), np.diag(0.5 * np.sqrt(d / e))
    cX, cP = closed_form_gradient(np.diag(d), np.diag(e))
    assert cX == pytest.approx(wX, rel=1e-12, abs=1e-15)
    assert cP == pytest.approx(wP, rel=1e-12, abs=1e-15)
    tol = sdp._ACCEPT * (1 + np.sqrt(d * e).sum())
    gX, gP = dual_gradient(np.diag(d), np.diag(e))
    assert gX == pytest.approx(wX, rel=0, abs=tol)
    assert gP == pytest.approx(wP, rel=0, abs=tol)


def test_gradients_match_finite_differences_of_oracle(dual_gradient):
    # X and P are PD here, so Cholesky factors feed the oracle at every
    # perturbed point. B_I is a sum of per-block bounds, so its gradient is
    # the block-diagonal assembly of the lift's dual matrices per block.
    gen = np.random.default_rng(17)
    t = 1e-6
    for n in (2, 3, 4, 5):
        parts = [p for p in all_partitions(n) if max(map(len, p.blocks)) >= 2]
        X, P = (M[0] for M in _stack(gen, 1, n, 0.5))
        for p in parts:
            gX, gP = np.zeros((n, n)), np.zeros((n, n))
            for idx in p.indices:
                ix = np.ix_(idx, idx)
                gX[ix], gP[ix] = dual_gradient(X[ix], P[ix])
            D = gen.standard_normal((n, n))
            D = D + D.T

            def oracle(A, B):
                return _oracle(np.linalg.cholesky(A), np.linalg.cholesky(B), p)

            fd_x = (oracle(X + t * D, P) - oracle(X - t * D, P)) / (2 * t)
            fd_p = (oracle(X, P + t * D) - oracle(X, P - t * D)) / (2 * t)
            assert fd_x == pytest.approx(float(np.sum(gX * D)), rel=1e-5, abs=1e-6)
            assert fd_p == pytest.approx(float(np.sum(gP * D)), rel=1e-5, abs=1e-6)


def test_bad_block_inside_a_stack_still_raises():
    gen = np.random.default_rng(23)
    for k in (1, 2, 3):
        X, P = _stack(gen, 5, k, 0.1)
        bad = X[3] - (np.linalg.eigvalsh(X[3])[-1] + 1.0) * np.eye(k)
        with pytest.raises(NotPSD, match="sqrt_psd argument") as info:
            quantum_bound(bad, P[3])
        assert info.value.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(bad)[0])
        with pytest.raises(NotPSD, match="quantum_bound second argument"):
            quantum_bound(X[3], bad)
        # X is checked before P.
        with pytest.raises(NotPSD, match="sqrt_psd argument"):
            quantum_bound(bad, bad)
        nan = P[2].copy()
        nan[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            quantum_bound(X[2], nan)
    with pytest.raises(ValueError):
        quantum_bound(np.ones((2, 2)), np.ones((3, 3)))
