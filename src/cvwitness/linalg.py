"""Dense symmetric-matrix primitives: PSD square roots, symplectic spectra,
and the quantumness bound of a pair of matrices.

All matrices are real, symmetric, dense, and small (n <= 32).  Units are the
dimensionless ones used throughout the package: vacuum variance 1/2.
"""
from __future__ import annotations

import numpy as np

# Eigenvalues in [-PSD_TOL, 0) are treated as rounding noise and clipped to 0;
# anything below -PSD_TOL is a genuine negativity.
PSD_TOL = 1e-10


class NotPSD(ValueError):
    """Matrix expected to be positive semidefinite is not.

    Carries the offending (most negative) eigenvalue as ``min_eigenvalue``.
    """

    def __init__(self, min_eigenvalue: float, context: str = "matrix"):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"{context} is not positive semidefinite: "
            f"min eigenvalue {min_eigenvalue:.3e} < -{PSD_TOL:.0e}"
        )


def _frozen(a) -> np.ndarray:
    """a as a read-only array; an array is frozen in place."""
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 as a float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return (A + A.T) / 2.0


def sqrt_psd(A: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues in [-PSD_TOL, 0) count as 0."""
    w, V = np.linalg.eigh(symmetrize(A))
    if w[0] < -PSD_TOL:
        raise NotPSD(w[0], "sqrt_psd argument")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _spectrum(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    # Ascending, clipped eig(sqrt(X) P sqrt(X)): the one source of B and of the
    # symplectic spectrum. X is checked before P. The 1x1 closed form is
    # bit-identical to the eigen path and about twice as cheap.
    X, P = symmetrize(X), symmetrize(P)
    if X.shape != P.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {P.shape}")
    one = X.shape[0] == 1
    if one and X[0, 0] < -PSD_TOL:
        raise NotPSD(X[0, 0], "sqrt_psd argument")
    sX = np.sqrt(max(X[0, 0], 0.0)) if one else sqrt_psd(X)
    low = P[0, 0] if one else np.linalg.eigvalsh(P)[0]
    if low < -PSD_TOL:
        raise NotPSD(low, "quantum_bound second argument")
    return np.clip(sX * P[0] * sX if one else np.linalg.eigvalsh(sX @ P @ sX), 0.0, None)


def quantum_bound(X: np.ndarray, P: np.ndarray) -> float:
    """The quantumness bound B(X, P) = tr sqrt(sqrt(X) P sqrt(X)).

    Lower bound on tr(X gxx) + tr(P gpp) over all physical covariance blocks;
    symmetric in its arguments and defined for all PSD pairs. Raises NotPSD
    for an eigenvalue below -PSD_TOL, in X before P.
    """
    inner = _spectrum(X, P)
    # The square root amplifies eigenvalue rounding noise near zero
    # (sqrt(1e-15) ~ 3e-8); components 13 orders below the top are noise.
    inner[inner < 1e-13 * inner[-1]] = 0.0
    return float(np.sqrt(inner).sum())


def symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n covariance matrix, descending.

    For an xp-free gamma = diag(gxx, gpp) with PSD blocks, the symplectic
    eigenvalues are nu_j = sqrt(eig(sqrt(gxx) gpp sqrt(gxx))), so
    B(gxx, gpp) = sum_j nu_j. Raises ValueError when gamma has a nonzero x-p
    entry and NotPSD when a block is not PSD. Physical states have every
    nu_j >= 1/2.
    """
    gamma = symmetrize(gamma)
    m = gamma.shape[0]
    if m % 2 != 0:
        raise ValueError(f"covariance matrix must be 2n x 2n, got {m} x {m}")
    n = m // 2
    if np.any(gamma[:n, n:]):
        raise ValueError("x-p correlations are out of scope: gamma[:n, n:] must be 0")
    return np.sqrt(_spectrum(gamma[:n, :n], gamma[n:, n:]))[::-1]


def alt_inequality_gap(X: np.ndarray, P: np.ndarray) -> float:
    """tr sqrt(sqrt(X) P sqrt(X)) - tr(sqrt(X) sqrt(P)), nonnegative for PSD pairs.

    The Araki-Lieb-Thirring trace inequality guarantees a gap >= 0; anything
    below -1e-9 would indicate a numerical defect.
    """
    return quantum_bound(X, P) - float(np.trace(sqrt_psd(X) @ sqrt_psd(P)))
