"""The interior-point solver on problems with known optima.

Oracles: the nuclear norm ||F_A^T F_B||_* of Cholesky factors for the lift of
one block, max{tr Y : [[A, Y], [Y^T, B]] PSD}, whose dual matrix has the
fixed off-diagonal block -I/2; a two-variable linear program solved by hand;
for the witness programs, the dual conditions on W evaluated from dense F_ji
built in the test, and the same program solved with every variable shared;
and numpy's own transpose for the structure's transpose map.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness import genuine_search, optimize_witness, sdp, witness
from cvwitness.partitions import bipartitions, parse_partition


@pytest.mark.parametrize("label", [-1, 0])
def test_lift_of_one_block_is_the_nuclear_norm(label, lift):
    gen = np.random.default_rng(5)
    for k in (1, 2, 3, 5):
        FA, FB = gen.standard_normal((2, k, k))
        A, B = FA @ FA.T + 0.1 * np.eye(k), FB @ FB.T + 0.1 * np.eye(k)
        block, b = lift(A, B)
        st = sdp.Structure([block], np.full(k * k, label))
        sol = sdp.solve(b, [block], np.zeros(k * k), st)
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
    st = sdp.Structure(blocks, np.array(group))
    sol = sdp.solve(np.array([1.0, 2.0]), blocks, np.array([0.1, 0.1]), st)
    want = 1.5 if group[0] == group[1] else 2.0
    assert sol.converged
    assert sol.primal == pytest.approx(want, abs=1e-7)
    assert sol.dual == pytest.approx(want, abs=1e-7)
    assert all(W.shape == (1, 1) and W[0, 0] > -1e-12 for W in sol.W)


def test_bad_input_is_refused(lift):
    block, b = lift(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="groups"):
        sdp.solve(b, [block], np.zeros(4), sdp.Structure([block], np.array([0, 0, 1, 1])))
    with pytest.raises(ValueError, match="strictly feasible"):
        sdp.solve(b, [block], np.full(4, 2.0), sdp.Structure([block], np.full(4, -1)))


def test_a_structure_refuses_other_blocks(lift):
    # Blocks with the structure's sizes and var, row and col solve, equal
    # copies too; another block count, size or term list is refused.
    block, b = lift(np.eye(2), np.eye(2))
    st = sdp.Structure([block], np.full(4, -1))
    copy = sdp.Block(2 * block.F0, *(a.copy() for a in (block.var, block.row, block.col)),
                     block.coef)
    assert sdp.solve(b, [copy], np.zeros(4), st).primal == pytest.approx(4.0, abs=1e-7)
    other, _ = lift(np.eye(3), np.eye(3))
    fewer = sdp.Block(block.F0, block.var[:3], block.row[:3], block.col[:3], block.coef[:3])
    moved = sdp.Block(block.F0, block.var[::-1], block.row, block.col, block.coef)
    for blocks in ([], [block, block], [other], [fewer], [moved]):
        with pytest.raises(ValueError, match="structure was built from"):
            sdp.solve(b, blocks, np.zeros(4), st)


def test_iterations_stop_at_the_budget(monkeypatch, lift):
    # Two steps cannot close the gap from a zero start: the solver reports
    # both steps and the best of the three iterates, unconverged.
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    gen = np.random.default_rng(5)
    FA, FB = gen.standard_normal((2, 3, 3))
    block, b = lift(FA @ FA.T + 0.1 * np.eye(3), FB @ FB.T + 0.1 * np.eye(3))
    sol = sdp.solve(b, [block], np.zeros(9), sdp.Structure([block], np.full(9, -1)))
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
    # The genuine program, the Werner-Wolf program of margin mode over every
    # ppt4 cut, whose W on the two n x n blocks of a cut is its witness, and
    # score mode per klev4 cut: each returned W is PSD, nearly dual feasible
    # and has the dual objective the solver reports.
    runs, solve = [], sdp.solve

    def spy(b, blocks, y0, st):
        sol = solve(b, blocks, y0, st)
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


def test_linear_cone_matches_its_matrix_form(monkeypatch, klev4):
    # The klev4 genuine program and klev4 score mode per cut, each with one
    # linear row per cut, solved again with each 1x1 block re-posed as a 2x2
    # matrix block, which the solver treats as a matrix: the same optimum,
    # and each linear W the (0, 0) entry of its 2x2 W, whose (1, 1) entry is
    # complementary to 1. The primals agree to 1e-9 relative (4.5e-10
    # measured, in score mode). The duals agree only to the stopping rule:
    # the genuine program stalls with gaps of 7e-9 and 2e-8, and its dual
    # multipliers, about 0.5, differ by 3.3e-7; the score-mode ones are 1.
    # The re-posed blocks need a structure of their own.
    runs, solve = [], sdp.solve

    def spy(b, blocks, y0, st):
        runs.append((b, blocks, y0, st))
        return solve(b, blocks, y0, st)

    monkeypatch.setattr(sdp, "solve", spy)
    genuine_search(klev4, s_level=4.0)
    optimize_witness(klev4, bipartitions(4))
    assert len(runs) == 2
    for b, blocks, y0, st in runs:
        linear = [j for j, block in enumerate(blocks) if block.F0.shape == (1, 1)]
        assert len(linear) == 7
        posed = [_as_matrix(blk) if j in linear else blk for j, blk in enumerate(blocks)]
        with pytest.raises(ValueError, match="structure was built from"):
            solve(b, posed, y0, st)
        cone = solve(b, blocks, y0, st)
        matrix = solve(b, posed, y0, sdp.Structure(posed, st.group))
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
        sdp.Structure(ceiling + [row(1.0, [0, 1], [-1.0, -1.0])], np.array([0, 1]))
    for F0 in (-0.2, -0.1):  # z(y0) = F0 + 0.1 is 0, then negative
        blocks = ceiling + [row(F0, [0], [1.0])]
        with pytest.raises(ValueError, match="the starting point is not strictly feasible"):
            sdp.solve(b, blocks, y0, sdp.Structure(blocks, np.array([0, 1])))
    blocks = ceiling + [row(0.0, [0], [1.0])]
    sol = sdp.solve(b, blocks, y0, sdp.Structure(blocks, np.array([0, 1])))
    assert sol.converged and sol.primal == pytest.approx(2.0, abs=1e-7)


def test_numerical_breakdown_returns_the_best_feasible_iterate(monkeypatch, klev4):
    # A LinAlgError from a late factorization of klev4's genuine program ends
    # the solve at its best iterate so far: y is feasible, checked on each
    # Z_j(y) built densely from the block terms, and the primal is b.y.
    runs, solve, inv_chol = [], sdp.solve, sdp._inv_chol

    def spy(b, blocks, y0, st):
        runs.append((b, blocks, y0, st))
        return solve(b, blocks, y0, st)

    monkeypatch.setattr(sdp, "solve", spy)
    genuine_search(klev4, s_level=4.0)
    ((b, blocks, y0, st),) = runs
    calls = []

    def counted(A):
        calls.append(A.shape)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError
        return inv_chol(A)

    monkeypatch.setattr(sdp, "_inv_chol", counted)
    fail_at = None
    full = solve(b, blocks, y0, st)
    fail_at, total = len(calls) // 2, len(calls)
    calls.clear()
    sol = solve(b, blocks, y0, st)
    assert len(calls) == fail_at < total
    assert full.converged and not sol.converged
    assert 0 < sol.iterations < full.iterations
    assert sol.primal == float(b @ sol.y)
    assert sol.primal <= full.dual + sdp._TOL * (1 + abs(full.dual))
    for block in blocks:
        Z = block.F0 + np.einsum("i,ijk->jk", sol.y, _dense(block, b.size))
        assert np.linalg.eigvalsh(Z)[0] > 0


def _bits(sol: sdp.Solution) -> tuple:
    return (sol.y.tobytes(), [W.tobytes() for W in sol.W], sol.primal, sol.dual,
            sol.converged, sol.iterations)


def test_shared_variables_change_only_rounding(monkeypatch, ppt4, klev4):
    # Margin-mode programs have no shared variable, so the solver eliminates
    # none. Labelling every variable shared forces the elimination on the
    # same blocks. A one-cut program gives the same bits either way. Over
    # all seven cuts of ppt4 and of klev4 both take the same steps (9 and
    # 11), and each cut's t, the variable of gain 1, agrees to 1e-10 (4e-14
    # measured), as do the objectives relative to their size. The rest of y
    # is not compared: ppt4's cuts 13|24 and 14|23 have no unique (a_b, c_b).
    runs, solve = [], sdp.solve

    def spy(b, blocks, y0, st):
        runs.append((b, blocks, y0, st))
        return solve(b, blocks, y0, st)

    monkeypatch.setattr(sdp, "solve", spy)
    for cut in ("12|34", "1|234"):
        optimize_witness(ppt4, [parse_partition(cut, 4)], no_error=True)
    optimize_witness(ppt4, bipartitions(4), no_error=True)
    optimize_witness(klev4, bipartitions(4), no_error=True)
    assert len(runs) == 4
    for i, (b, blocks, y0, st) in enumerate(runs):
        forced = sdp.Structure(blocks, np.full(b.size, -1))
        assert st.s == 0 and forced.s == b.size
        own, shared = solve(b, blocks, y0, st), solve(b, blocks, y0, forced)
        if i < 2:
            assert _bits(own) == _bits(shared)
            continue
        assert own.converged and shared.converged
        assert own.iterations == shared.iterations
        t = np.flatnonzero(b)
        assert t.size == 7 and np.abs(own.y[t] - shared.y[t]).max() <= 1e-10
        assert own.primal == pytest.approx(shared.primal, rel=1e-10)
        assert own.dual == pytest.approx(shared.dual, rel=1e-10)


def test_transpose_map_transposes_every_matrix_block():
    # The margin program has no 1x1 row and matrix blocks of three sizes,
    # the genuine program one row per cut and blocks of four sizes. The map
    # fixes the 1x1 rows, sends (i, j) of every matrix block to (j, i), is
    # its own inverse, and symmetrizes a flat vector with the bits of
    # (A + A^T) / 2 per block.
    cuts = tuple(bipartitions(4))
    structures = witness._werner_wolf_program(4, cuts)[3], witness._lift_program(4, cuts, True)[3]
    assert [(st.l, len(st.spans)) for st in structures] == [(0, 3), (7, 4)]
    gen = np.random.default_rng(26)
    for st in structures:
        t, index, x = st.transpose, np.arange(st.size), gen.standard_normal(st.size)
        assert [a for a, _, _ in st.spans] == [st.l] + [b for _, b, _ in st.spans[:-1]]
        assert st.spans[-1][1] == st.size
        assert np.array_equal(t[: st.l], index[: st.l])
        assert np.array_equal(t[t], index)
        flat = (x + x[t]) / 2.0
        for a, b, gdd in st.spans:
            assert np.array_equal(t[a:b].reshape(gdd), index[a:b].reshape(gdd).swapaxes(1, 2))
            A = x[a:b].reshape(gdd)
            assert flat[a:b].tobytes() == ((A + A.swapaxes(-1, -2)) / 2.0).tobytes()


def _arrays_of(*blocks: sdp.Block) -> list[np.ndarray]:
    return [getattr(blk, f) for blk in blocks for f in ("F0", "var", "row", "col", "coef")]


def test_layout_matches_blocks_written_by_hand():
    # Variables: t = 0 (gain 1, start 2), Y = 1..6 row-major over (2, 3), and
    # S = 7..10 along the upper triangle of a mask with a hole in it. Block 0
    # places S on its diagonal (its upper triangle, skipping -1), Y off it
    # (every entry) and t on the diagonal of a 2x2 corner with -1 off it;
    # block 1 is a 1x1 row; block 2 places t I off the diagonal.
    lay = sdp.Layout()
    t = lay.var((), 0, 1.0, 2.0)
    Y = lay.var((2, 3), 0)
    mask = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    S = lay.sym(mask, -1, 3.0 * np.eye(3))
    assert t == 0 and np.array_equal(Y, [[1, 2, 3], [4, 5, 6]])
    assert np.array_equal(S, [[7, 8, -1], [8, 9, -1], [-1, -1, 10]])
    F0 = np.arange(25.0).reshape(5, 5)
    corner = np.array([[t, -1], [-1, t]])
    assert lay.lmi(F0, (S, 2.0, 0, 0), (Y, -1.0, 0, 2), (corner, 0.5, 3, 3)) == 0
    assert lay.lmi(1.5, (Y[0], 1.0, 0, 0), (t, -2, 0, 0)) == 1
    assert lay.lmi(np.eye(3), (np.where(np.eye(2) > 0, t, -1), 0.5, 0, 1)) == 2
    gain, start, blocks, st = lay.done()

    def block(F0, var, row, col, coef):
        return sdp.Block(np.asarray(F0), *(np.array(a) for a in (var, row, col)),
                         np.array(coef, dtype=float))

    want = [
        block(F0, [7, 8, 9, 10, 1, 2, 3, 4, 5, 6, 0, 0],
              [0, 0, 1, 2, 0, 0, 0, 1, 1, 1, 3, 4], [0, 1, 1, 2, 2, 3, 4, 2, 3, 4, 3, 4],
              [2] * 4 + [-1] * 6 + [0.5] * 2),
        block([[1.5]], [1, 2, 3, 0], [0] * 4, [0] * 4, [1, 1, 1, -2]),
        block(np.eye(3), [0, 0], [0, 1], [1, 2], [0.5, 0.5]),
    ]
    assert len(blocks) == len(want)
    for got, ref in zip(_arrays_of(*blocks), _arrays_of(*want)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    assert gain.dtype == start.dtype == float
    assert np.array_equal(gain, [1] + [0] * 10)
    assert np.array_equal(start, [2] + [0] * 6 + [3, 0, 3, 3])
    assert np.array_equal(st.group, [0] * 7 + [-1] * 4)
    kept = [gain, start] + _arrays_of(*blocks)
    kept += [a for a in vars(st).values() if isinstance(a, np.ndarray)]
    assert not any(a.flags.writeable for a in kept)


def _lin(block: sdp.Block, y: np.ndarray) -> np.ndarray:
    # Z(y) = F0 + sum_i y_i F_i of one block, with F_i from _dense.
    return block.F0 + np.einsum("i,ijk->jk", y, _dense(block, y.size))


def _direct_sum(parts, blocks, n: int) -> np.ndarray:
    # (+)M_b: M_b on the rows and columns of block b, zero across blocks.
    out = np.zeros((n, n))
    for M, idx in zip(parts, blocks):
        out[np.ix_(idx, idx)] = M
    return out


def _spy(monkeypatch) -> list:
    runs, solve = [], sdp.solve

    def spy(b, blocks, y0, st):
        runs.append((b, blocks))
        return solve(b, blocks, y0, st)

    monkeypatch.setattr(sdp, "solve", spy)
    return runs


def test_werner_wolf_blocks_are_the_documented_lmis(monkeypatch, ppt4):
    # gxx - (+)a_b, gpp - (+)c_b and [[a_b, (t/2) I], [(t/2) I, c_b]] per
    # block b, per cut, at a random y. Each cut declares t and then (+)a_b
    # and (+)c_b, each numbered along its upper triangle within the blocks;
    # the y-indices the program keeps for each a_b and c_b read the same.
    cuts = bipartitions(4) + [parse_partition(c, 4) for c in ("1|2|34", "13|2|4")]
    runs = _spy(monkeypatch)
    witness._werner_wolf(ppt4, cuts)
    ((b, blocks),) = runs
    *_, cuts_at = witness._werner_wolf_program(4, tuple(cuts))
    y = np.random.default_rng(27).standard_normal(b.size)
    v = j = 0
    for q, (ti, jx, at) in zip(cuts, cuts_at):
        t = y[v]
        r, e = np.nonzero(np.triu(q.labels[:, None] == q.labels))
        full = []
        for first in (v + 1, v + 1 + r.size):
            M = np.zeros((4, 4))
            M[r, e] = M[e, r] = y[first : first + r.size]
            full.append(M)
        assert ti == v and jx == j and b[v] == 1.0
        a, c = ([M[np.ix_(idx, idx)] for idx in q.indices] for M in full)
        for kept, parts in zip(at, (a, c)):
            assert all(np.array_equal(y[i], M) for i, M in zip(kept, parts))
        assert np.allclose(_lin(blocks[j], y), ppt4.gamma_xx - full[0], rtol=0, atol=1e-14)
        assert np.allclose(_lin(blocks[j + 1], y), ppt4.gamma_pp - full[1], rtol=0, atol=1e-14)
        for k, (ab, cb) in enumerate(zip(a, c)):
            tI = (t / 2) * np.eye(len(ab))
            want = np.block([[ab, tI], [tI, cb]])
            assert np.allclose(_lin(blocks[j + 2 + k], y), want, rtol=0, atol=1e-14)
        v, j = v + 1 + 2 * r.size, j + 2 + len(q.indices)
    assert v == b.size and j == len(blocks)


@pytest.mark.parametrize("shared", [False, True])
def test_lift_blocks_are_the_documented_lmis(monkeypatch, klev4, shared):
    # Per copy, at a random y: X, P, the sigma arrow [[1, v^T], [v, I]] with
    # |v|^2 = sigma(X, P)^2, then per cut [[X_bb, Y_b], [Y_b^T, P_bb]] for
    # each block b and the row sum_b tr Y_b - G - t. Each copy declares X
    # and P, each along its upper triangle, t, and then each Y_b row-major;
    # its blocks come in that order too.
    cuts = bipartitions(4)
    runs = _spy(monkeypatch)
    witness._lift(klev4, cuts, shared)
    ((b, blocks),) = runs
    y = np.random.default_rng(28).standard_normal(b.size)
    iu = np.triu_indices(4)
    v = j = 0
    for members in [cuts] if shared else [[q] for q in cuts]:
        X, P = np.zeros((2, 4, 4))
        for M, first in ((X, v), (P, v + 10)):
            M[iu] = M[iu[::-1]] = y[first : first + 10]
        t, v = y[v + 20], v + 21
        assert np.flatnonzero(b[v - 21 : v]).tolist() == [20] and b[v - 1] == 1.0
        assert np.allclose(_lin(blocks[j], y), X, rtol=0, atol=1e-14)
        assert np.allclose(_lin(blocks[j + 1], y), P, rtol=0, atol=1e-14)
        Z = _lin(blocks[j + 2], y)
        assert Z[0, 0] == 1.0 and np.array_equal(Z[1:, 1:], np.eye(20))
        assert np.array_equal(Z[0, 1:], Z[1:, 0])
        sig2 = np.sum(X**2 * klev4.sigma_xx**2) + np.sum(P**2 * klev4.sigma_pp**2)
        assert Z[0, 1:] @ Z[0, 1:] == pytest.approx(sig2, rel=1e-12)
        j += 3
        for q in members:
            trace = 0.0
            for idx in q.indices:
                k = idx.size
                Y = y[v : v + k * k].reshape(k, k)
                bb = np.ix_(idx, idx)
                want = np.block([[X[bb], Y], [Y.T, P[bb]]])
                assert np.allclose(_lin(blocks[j], y), want, rtol=0, atol=1e-14)
                trace, v, j = trace + np.trace(Y), v + k * k, j + 1
            G = np.sum(klev4.gamma_xx * X) + np.sum(klev4.gamma_pp * P)
            assert blocks[j].F0.shape == (1, 1)
            assert _lin(blocks[j], y)[0, 0] == pytest.approx(trace - G - t, rel=1e-12, abs=1e-12)
            j += 1
    assert v == b.size and j == len(blocks)
