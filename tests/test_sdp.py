"""The interior-point solver on problems with known optima.

Oracles: the nuclear norm ||F_A^T F_B||_* of Cholesky factors for the lift of
one block, max{tr Y : [[A, Y], [Y^T, B]] PSD}, whose dual matrix has the
fixed off-diagonal block -I/2; and a two-variable linear program solved by
hand.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness import sdp


def _lift(A: np.ndarray, B: np.ndarray) -> tuple[sdp.Block, np.ndarray]:
    # Y is the only variable: y[a*k + e] sits at (a, k + e); b picks tr Y.
    k = len(A)
    a, e = np.divmod(np.arange(k * k), k)
    F0 = np.block([[A, np.zeros((k, k))], [np.zeros((k, k)), B]])
    return sdp.Block(F0, np.arange(k * k), a, k + e, np.ones(k * k)), (a == e) * 1.0


@pytest.mark.parametrize("label", [-1, 0])
def test_lift_of_one_block_is_the_nuclear_norm(label):
    gen = np.random.default_rng(5)
    for k in (1, 2, 3, 5):
        FA, FB = gen.standard_normal((2, k, k))
        A, B = FA @ FA.T + 0.1 * np.eye(k), FB @ FB.T + 0.1 * np.eye(k)
        block, b = _lift(A, B)
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


def test_bad_input_is_refused():
    block, b = _lift(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="groups"):
        sdp.solve(b, [block], np.zeros(4), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError, match="strictly feasible"):
        sdp.solve(b, [block], np.full(4, 2.0), np.full(4, -1))


def test_iterations_stop_at_the_budget(monkeypatch):
    # Two steps cannot close the gap from a zero start: the solver reports
    # both steps and the best of the three iterates, unconverged.
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    gen = np.random.default_rng(5)
    FA, FB = gen.standard_normal((2, 3, 3))
    block, b = _lift(FA @ FA.T + 0.1 * np.eye(3), FB @ FB.T + 0.1 * np.eye(3))
    sol = sdp.solve(b, [block], np.zeros(9), np.full(9, -1))
    assert sol.iterations == 2 and not sol.converged
