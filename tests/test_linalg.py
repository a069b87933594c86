"""Matrix kernel: square roots, the quantumness bound, and its gradient."""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness.linalg import (
    NotPSD,
    SingularGradient,
    alt_inequality_gap,
    quantum_bound,
    quantum_bound_gradient,
    sqrt_psd,
    symmetrize,
    symplectic_spectrum,
)


def _psd(gen: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    R = gen.standard_normal((n, n))
    return R @ R.T + floor * np.eye(n)


def test_symmetrize_rejects_bad_shapes():
    with pytest.raises(ValueError):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sqrt_psd_squares_back():
    gen = np.random.default_rng(11)
    for _ in range(50):
        n = int(gen.integers(1, 8))
        A = _psd(gen, n)
        S = sqrt_psd(A)
        assert np.allclose(S, S.T)
        assert np.allclose(S @ S, A, atol=1e-8)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSD) as info:
        sqrt_psd(np.diag([1.0, -0.5]))
    assert info.value.min_eigenvalue == pytest.approx(-0.5)


def test_quantum_bound_identity():
    for n in range(1, 7):
        assert quantum_bound(np.eye(n), np.eye(n)) == pytest.approx(float(n))


def test_quantum_bound_commuting_diagonal():
    gen = np.random.default_rng(5)
    for _ in range(20):
        n = int(gen.integers(1, 9))
        x = gen.uniform(0.1, 3.0, n)
        p = gen.uniform(0.1, 3.0, n)
        got = quantum_bound(np.diag(x), np.diag(p))
        assert got == pytest.approx(np.sum(np.sqrt(x * p)))


def test_quantum_bound_rank_one_is_inner_product():
    gen = np.random.default_rng(7)
    for _ in range(20):
        n = int(gen.integers(1, 7))
        h = gen.standard_normal(n)
        g = gen.standard_normal(n)
        got = quantum_bound(np.outer(h, h), np.outer(g, g))
        assert got == pytest.approx(abs(float(h @ g)), abs=1e-9)


def test_quantum_bound_scaling_and_symmetry():
    gen = np.random.default_rng(13)
    for _ in range(20):
        n = int(gen.integers(1, 6))
        X, P = _psd(gen, n), _psd(gen, n)
        a, b = gen.uniform(0.2, 4.0, 2)
        B = quantum_bound(X, P)
        assert quantum_bound(a * X, b * P) == pytest.approx(np.sqrt(a * b) * B)
        assert quantum_bound(P, X) == pytest.approx(B)


def test_quantum_bound_congruence_invariant():
    gen = np.random.default_rng(17)
    for _ in range(20):
        n = int(gen.integers(2, 6))
        X, P = _psd(gen, n), _psd(gen, n)
        S = gen.standard_normal((n, n)) + n * np.eye(n)
        Si = np.linalg.inv(S)
        got = quantum_bound(S @ X @ S.T, Si.T @ P @ Si)
        assert got == pytest.approx(quantum_bound(X, P), rel=1e-7)


def test_quantum_bound_concave():
    gen = np.random.default_rng(19)
    for _ in range(30):
        n = int(gen.integers(1, 6))
        X1, P1, X2, P2 = (_psd(gen, n) for _ in range(4))
        lam = float(gen.uniform())
        mixed = quantum_bound(
            lam * X1 + (1 - lam) * X2, lam * P1 + (1 - lam) * P2
        )
        split = lam * quantum_bound(X1, P1) + (1 - lam) * quantum_bound(X2, P2)
        assert mixed >= split - 1e-9


def test_quantum_bound_monotone_in_psd_order():
    gen = np.random.default_rng(23)
    for _ in range(30):
        n = int(gen.integers(1, 6))
        X, P, D = _psd(gen, n), _psd(gen, n), _psd(gen, n)
        assert quantum_bound(X + D, P) >= quantum_bound(X, P) - 1e-9
        assert quantum_bound(X, P + D) >= quantum_bound(X, P) - 1e-9


def test_quantum_bound_rejects_non_psd():
    with pytest.raises(NotPSD):
        quantum_bound(np.diag([1.0, -1e-6]), np.eye(2))


def test_gradient_matches_directional_finite_differences():
    gen = np.random.default_rng(29)
    t = 1e-6
    for _ in range(60):
        n = int(gen.integers(1, 6))
        X = _psd(gen, n, 0.5)
        P = _psd(gen, n, 0.5)
        gX, gP = quantum_bound_gradient(X, P)
        D = symmetrize(gen.standard_normal((n, n)))
        E = symmetrize(gen.standard_normal((n, n)))
        fd_x = (quantum_bound(X + t * D, P) - quantum_bound(X - t * D, P)) / (2 * t)
        fd_p = (quantum_bound(X, P + t * E) - quantum_bound(X, P - t * E)) / (2 * t)
        assert fd_x == pytest.approx(float(np.sum(gX * D)), rel=1e-5, abs=1e-6)
        assert fd_p == pytest.approx(float(np.sum(gP * E)), rel=1e-5, abs=1e-6)


def test_gradient_euler_identity():
    # sqrt(ab)-homogeneity forces <gX, X> = <gP, P> = B/2.
    gen = np.random.default_rng(31)
    for _ in range(20):
        n = int(gen.integers(1, 6))
        X, P = _psd(gen, n, 0.3), _psd(gen, n, 0.3)
        B = quantum_bound(X, P)
        gX, gP = quantum_bound_gradient(X, P)
        assert float(np.sum(gX * X)) == pytest.approx(B / 2, rel=1e-8)
        assert float(np.sum(gP * P)) == pytest.approx(B / 2, rel=1e-8)


def test_gradient_rejects_singular_input():
    with pytest.raises(SingularGradient):
        quantum_bound_gradient(np.diag([1.0, 0.0]), np.eye(2))


def test_symplectic_spectrum_vacuum_and_squeezed():
    assert np.allclose(symplectic_spectrum(np.eye(8) / 2), 0.5)
    r = 1.3
    gamma = np.diag([np.exp(2 * r) / 2, np.exp(-2 * r) / 2])
    assert np.allclose(symplectic_spectrum(gamma), 0.5)


def test_symplectic_spectrum_thermal():
    gen = np.random.default_rng(37)
    nu = gen.uniform(0.5, 3.0, 5)
    gamma = np.diag(np.concatenate([nu, nu]))
    assert np.allclose(np.sort(symplectic_spectrum(gamma)), np.sort(nu))


def test_symplectic_spectrum_williamson_oracle():
    # gamma = S diag(nu, nu) S^T with the symplectic S = diag(M, M^-T) has
    # symplectic spectrum nu by construction, and B(gxx, gpp) = sum(nu).
    gen = np.random.default_rng(53)
    for n in range(1, 7):
        M = gen.standard_normal((n, n)) + 2 * np.eye(n)
        Minv = np.linalg.inv(M)
        nu = gen.uniform(0.5, 3.0, n)
        gamma = np.zeros((2 * n, 2 * n))
        gamma[:n, :n] = M @ np.diag(nu) @ M.T
        gamma[n:, n:] = Minv.T @ np.diag(nu) @ Minv
        got = symplectic_spectrum(gamma)
        assert np.allclose(got, np.sort(nu)[::-1], rtol=1e-9, atol=0.0)
        assert quantum_bound(gamma[:n, :n], gamma[n:, n:]) == pytest.approx(
            nu.sum(), rel=1e-9
        )


def test_symplectic_spectrum_rejects_xp_and_indefinite_blocks():
    gamma = np.eye(4) / 2
    gamma[0, 3] = gamma[3, 0] = 0.1
    with pytest.raises(ValueError, match="x-p"):
        symplectic_spectrum(gamma)
    # The moduli of the eigenvalues of J gamma read 1 here, as if physical.
    flipped = np.diag([-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NotPSD, match="sqrt_psd argument"):
        symplectic_spectrum(flipped)
    with pytest.raises(NotPSD, match="quantum_bound second argument"):
        symplectic_spectrum(np.diag([1.0, 1.0, -1.0, 1.0]))


def test_alt_gap_nonnegative():
    gen = np.random.default_rng(41)
    for _ in range(200):
        n = int(gen.integers(1, 7))
        assert alt_inequality_gap(_psd(gen, n), _psd(gen, n)) >= -1e-9


def test_alt_gap_zero_for_commuting_pairs():
    gen = np.random.default_rng(43)
    for _ in range(20):
        n = int(gen.integers(1, 7))
        V = np.linalg.qr(gen.standard_normal((n, n)))[0]
        X = V @ np.diag(gen.uniform(0.1, 2.0, n)) @ V.T
        P = V @ np.diag(gen.uniform(0.1, 2.0, n)) @ V.T
        assert alt_inequality_gap(X, P) == pytest.approx(0.0, abs=1e-8)
