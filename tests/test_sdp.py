"""The interior-point solver on problems with known optima.

Oracles: the nuclear norm ||F_A^T F_B||_* of Cholesky factors for the lift of
one block, max{tr Y : [[A, Y], [Y^T, B]] PSD}, whose dual matrix has the
fixed off-diagonal block -I/2; a two-variable linear program solved by hand;
and, for the witness programs, the dual conditions on W evaluated from dense
F_ji built in the test.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness import genuine_search, optimize_witness, sdp
from cvwitness.partitions import bipartitions


@pytest.mark.parametrize("label", [-1, 0])
def test_lift_of_one_block_is_the_nuclear_norm(label, lift):
    gen = np.random.default_rng(5)
    for k in (1, 2, 3, 5):
        FA, FB = gen.standard_normal((2, k, k))
        A, B = FA @ FA.T + 0.1 * np.eye(k), FB @ FB.T + 0.1 * np.eye(k)
        block, b = lift(A, B)
        sol = sdp.solve(b, [block], np.zeros(k * k), np.full(k * k, label))
        factors = np.linalg.cholesky(A).T @ np.linalg.cholesky(B)
        want = np.linalg.svd(factors, compute_uv=False).sum()
        assert sol.converged and 0 < sol.iterations < sdp._MAX_ITER
        assert sol.primal == pytest.approx(want, rel=1e-7)
        assert sol.dual == pytest.approx(want, rel=1e-7)
        (W,) = sol.W
        assert np.linalg.eigvalsh(W)[0] > -1e-9
        assert 2 * W[:k, k:] == pytest.approx(-np.eye(k), abs=1e-7)


@pytest.mark.parametrize("group", [[-1, -1], [0, 0], [0, 1]])
def test_linear_program(group):
    # max y0 + 2 y1 s.t. y0 >= 0, y1 >= 0, y0 + y1 <= 1, y1 <= 1/2: 3/2.
    def row(F0, var, coef):
        n = len(var)
        return sdp.Block(np.array([[F0]]), np.array(var), np.zeros(n, int), np.zeros(n, int),
                         np.array(coef, dtype=float))

    blocks = [row(0.0, [0], [1.0]), row(0.0, [1], [1.0])]
    if group[0] == group[1]:
        blocks.append(row(1.0, [0, 1], [-1.0, -1.0]))
    else:
        # Separate groups may not share a block; y1 <= 1/2 then binds alone.
        blocks.append(row(1.0, [0], [-1.0]))
    blocks.append(row(0.5, [1], [-1.0]))
    sol = sdp.solve(np.array([1.0, 2.0]), blocks, np.array([0.1, 0.1]), np.array(group))
    want = 1.5 if group[0] == group[1] else 2.0
    assert sol.converged
    assert sol.primal == pytest.approx(want, abs=1e-7)
    assert sol.dual == pytest.approx(want, abs=1e-7)
    assert all(W.shape == (1, 1) and W[0, 0] > -1e-12 for W in sol.W)


def test_bad_input_is_refused(lift):
    block, b = lift(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="groups"):
        sdp.solve(b, [block], np.zeros(4), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError, match="strictly feasible"):
        sdp.solve(b, [block], np.full(4, 2.0), np.full(4, -1))


def test_iterations_stop_at_the_budget(monkeypatch, lift):
    # Two steps cannot close the gap from a zero start: the solver reports
    # both steps and the best of the three iterates, unconverged.
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    gen = np.random.default_rng(5)
    FA, FB = gen.standard_normal((2, 3, 3))
    block, b = lift(FA @ FA.T + 0.1 * np.eye(3), FB @ FB.T + 0.1 * np.eye(3))
    sol = sdp.solve(b, [block], np.zeros(9), np.full(9, -1))
    assert sol.iterations == 2 and not sol.converged


def _dense(block: sdp.Block, m: int) -> np.ndarray:
    # F_i for every variable i, each term at (row, col) and at (col, row).
    d = block.F0.shape[0]
    F = np.zeros((m, d, d))
    np.add.at(F, (block.var, block.row, block.col), block.coef)
    off = block.row != block.col
    np.add.at(F, (block.var[off], block.col[off], block.row[off]), block.coef[off])
    return F


def test_solution_W_is_a_dual_point_of_the_witness_programs(monkeypatch, klev4, ppt4):
    # The genuine program, margin mode over every ppt4 cut, and score mode
    # per klev4 cut: each returned W is PSD, nearly dual feasible and has
    # the dual objective the solver reports.
    runs, solve = [], sdp.solve

    def spy(b, blocks, y0, group):
        sol = solve(b, blocks, y0, group)
        runs.append((b, blocks, sol))
        return sol

    monkeypatch.setattr(sdp, "solve", spy)
    genuine_search(klev4, s_level=4.0)
    optimize_witness(ppt4, bipartitions(4), no_error=True)
    optimize_witness(klev4, bipartitions(4))
    assert len(runs) == 3
    for b, blocks, sol in runs:
        assert sol.converged and len(sol.W) == len(blocks)
        adjoint, dual = np.zeros(b.size), 0.0
        for block, W in zip(blocks, sol.W):
            low, high = np.linalg.eigvalsh(W)[[0, -1]]
            assert low >= -len(W) * np.finfo(float).eps * high  # eigvalsh rounding
            adjoint += np.einsum("ijk,jk->i", _dense(block, b.size), W)
            dual += float(np.sum(block.F0 * W))
        residual = np.linalg.norm(adjoint + b) / (1 + np.linalg.norm(b))
        assert residual <= sdp._ACCEPT
        assert dual == pytest.approx(sol.dual, rel=1e-12)


def _as_matrix(block: sdp.Block) -> sdp.Block:
    # A 1x1 block z = F0 + a.y >= 0 posed as the 2x2 block diag(z, 1) PSD.
    F0 = np.diag([block.F0[0, 0], 1.0])
    return sdp.Block(F0, block.var, block.row, block.col, block.coef)


def test_linear_cone_matches_its_matrix_form(monkeypatch, klev4, ppt4):
    # The klev4 genuine program and ppt4 margin mode over every cut, solved
    # again with each 1x1 block re-posed as a 2x2 matrix block, which the
    # solver treats as a matrix: the same optimum, and each linear W the
    # (0, 0) entry of its 2x2 W, whose (1, 1) entry is complementary to 1.
    # The primals agree to 1e-9 relative (4e-10 measured). The duals agree
    # only to the stopping rule: the klev4 program stalls with gaps of 7e-9
    # and 2e-8, and its dual multipliers, about 0.5, differ by 3.3e-7.
    runs, solve = [], sdp.solve

    def spy(b, blocks, y0, group):
        runs.append((b, blocks, y0, group))
        return solve(b, blocks, y0, group)

    monkeypatch.setattr(sdp, "solve", spy)
    genuine_search(klev4, s_level=4.0)
    optimize_witness(ppt4, bipartitions(4), no_error=True)
    assert len(runs) == 2
    for b, blocks, y0, group in runs:
        linear = [j for j, block in enumerate(blocks) if block.F0.shape == (1, 1)]
        assert len(linear) == 7
        posed = [_as_matrix(blk) if j in linear else blk for j, blk in enumerate(blocks)]
        cone, matrix = solve(b, blocks, y0, group), solve(b, posed, y0, group)
        assert cone.converged and matrix.converged
        tol = 1e-9 * (1 + abs(cone.primal))
        assert cone.primal == pytest.approx(matrix.primal, abs=tol)
        assert cone.dual == pytest.approx(matrix.dual, abs=sdp._TOL * (1 + abs(cone.primal)))
        for j in linear:
            assert cone.W[j].shape == (1, 1) and matrix.W[j].shape == (2, 2)
            assert cone.W[j][0, 0] == pytest.approx(matrix.W[j][0, 0], abs=10 * sdp._ACCEPT)
            assert abs(matrix.W[j][1, 1]) <= sdp._ACCEPT


def test_linear_rows_are_checked_like_blocks():
    # A 1x1 row may not join two variable groups, and y0 must put it strictly
    # inside its half-line.
    def row(F0, var, coef):
        n = len(var)
        return sdp.Block(np.array([[F0]]), np.array(var), np.zeros(n, int), np.zeros(n, int),
                         np.array(coef, dtype=float))

    b, y0 = np.array([1.0, 1.0]), np.array([0.1, 0.1])
    ceiling = [row(1.0, [0], [-1.0]), row(1.0, [1], [-1.0])]
    with pytest.raises(ValueError, match="two variable groups share a block"):
        sdp.solve(b, ceiling + [row(1.0, [0, 1], [-1.0, -1.0])], y0, np.array([0, 1]))
    for F0 in (-0.2, -0.1):  # z(y0) = F0 + 0.1 is 0, then negative
        with pytest.raises(ValueError, match="the starting point is not strictly feasible"):
            sdp.solve(b, ceiling + [row(F0, [0], [1.0])], y0, np.array([0, 1]))
    sol = sdp.solve(b, ceiling + [row(0.0, [0], [1.0])], y0, np.array([0, 1]))
    assert sol.converged and sol.primal == pytest.approx(2.0, abs=1e-7)


def test_numerical_breakdown_returns_the_best_feasible_iterate(monkeypatch, klev4):
    # A LinAlgError from a late factorization of klev4's genuine program ends
    # the solve at its best iterate so far: y is feasible, checked on each
    # Z_j(y) built densely from the block terms, and the primal is b.y.
    runs, solve, inv_chol = [], sdp.solve, sdp._inv_chol

    def spy(b, blocks, y0, group):
        runs.append((b, blocks, y0, group))
        return solve(b, blocks, y0, group)

    monkeypatch.setattr(sdp, "solve", spy)
    genuine_search(klev4, s_level=4.0)
    ((b, blocks, y0, group),) = runs
    calls = []

    def counted(A):
        calls.append(A.shape)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError
        return inv_chol(A)

    monkeypatch.setattr(sdp, "_inv_chol", counted)
    fail_at = None
    full = solve(b, blocks, y0, group)
    fail_at, total = len(calls) // 2, len(calls)
    calls.clear()
    sol = solve(b, blocks, y0, group)
    assert len(calls) == fail_at < total
    assert full.converged and not sol.converged
    assert 0 < sol.iterations < full.iterations
    assert sol.primal == float(b @ sol.y)
    assert sol.primal <= full.dual + sdp._TOL * (1 + abs(full.dual))
    for block in blocks:
        Z = block.F0 + np.einsum("i,ijk->jk", sol.y, _dense(block, b.size))
        assert np.linalg.eigvalsh(Z)[0] > 0
