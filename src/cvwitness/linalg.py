"""Dense symmetric-matrix primitives: PSD square roots, symplectic spectra,
the quantumness bound of a pair of matrices, and its analytic gradient.

All matrices are real, symmetric, dense, and small (n <= 32).  Units are the
dimensionless ones used throughout the package: vacuum variance 1/2.
"""
from __future__ import annotations

import numpy as np

# Eigenvalues in [-PSD_TOL, 0) are treated as rounding noise and clipped to 0;
# anything below -PSD_TOL is a genuine negativity.
PSD_TOL = 1e-10

# Minimum eigenvalue for which the gradient of the quantumness bound is
# considered well defined; below this the inverse square root blows up.
PD_FLOOR = 1e-12


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


class SingularGradient(ValueError):
    """Gradient of the quantumness bound is undefined for (near-)singular input.

    Callers must regularize the input or fall back to finite differences.
    """

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"gradient undefined: min eigenvalue {min_eigenvalue:.3e} "
            f"<= {PD_FLOOR:.0e}"
        )


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 as a float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return (A + A.T) / 2.0


def _psd_eigh(A: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    # Shared validation: eigendecompose, clip rounding noise, reject negativity.
    w, V = np.linalg.eigh(symmetrize(A))
    if w[0] < -PSD_TOL:
        raise NotPSD(w[0], context)
    return np.clip(w, 0.0, None), V


def sqrt_psd(A: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a PSD matrix."""
    w, V = _psd_eigh(A, "sqrt_psd argument")
    return (V * np.sqrt(w)) @ V.T


def quantum_bound(X: np.ndarray, P: np.ndarray) -> float:
    """The quantumness bound B(X, P) = tr sqrt(sqrt(X) P sqrt(X)).

    Lower bound on tr(X gxx) + tr(P gpp) over all physical covariance blocks;
    symmetric in its arguments and defined for all PSD pairs. One eigh of X
    and one eigvalsh of P; for 1x1 input, B = sqrt(sqrt(x) p sqrt(x))
    directly, which is bit-identical to the eigen path. Raises NotPSD for an
    eigenvalue below -PSD_TOL, in X before P.
    """
    X = symmetrize(X)
    P = symmetrize(P)
    if X.shape != P.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {P.shape}")
    if X.shape[0] == 1:
        wX, wP = X[0], P[0]
    else:
        wX, VX = np.linalg.eigh(X)
        wP = np.linalg.eigvalsh(P)
    if wX[0] < -PSD_TOL:
        raise NotPSD(wX[0], "sqrt_psd argument")
    if wP[0] < -PSD_TOL:
        raise NotPSD(wP[0], "quantum_bound second argument")
    rX = np.sqrt(np.clip(wX, 0.0, None))
    if X.shape[0] == 1:
        return float(np.sqrt(np.clip(rX * P[0] * rX, 0.0, None))[0])
    sX = (VX * rX) @ VX.T
    inner = np.clip(np.linalg.eigvalsh(sX @ P @ sX), 0.0, None)
    # The square root amplifies eigenvalue rounding noise near zero
    # (sqrt(1e-15) ~ 3e-8); components 13 orders below the top are noise.
    inner[inner < 1e-13 * inner[-1]] = 0.0
    return float(np.sqrt(inner).sum())


def _half(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # 1/2 sqrt(A) (sqrt(A) B sqrt(A))^{-1/2} sqrt(A), after checking the
    # smallest eigenvalues of A and of sqrt(A) B sqrt(A) against PD_FLOOR.
    wA, VA = np.linalg.eigh(A)
    if wA[0] <= PD_FLOOR:
        raise SingularGradient(wA[0])
    sA = (VA * np.sqrt(wA)) @ VA.T
    w, V = np.linalg.eigh(sA @ B @ sA)
    if w[0] <= PD_FLOOR:
        raise SingularGradient(w[0])
    M = 0.5 * sA @ ((V / np.sqrt(w)) @ V.T) @ sA
    return (M + M.T) / 2.0


def quantum_bound_gradient(
    X: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of quantum_bound for strictly PD inputs.

    dX = 1/2 sqrt(P) (sqrt(P) X sqrt(P))^{-1/2} sqrt(P) and symmetrically for
    dP.  Entry (i, j) is the half-derivative along e_ij + e_ji; the directional
    derivative along a symmetric direction D is <dX, D>. Raises
    SingularGradient when an eigenvalue it takes a root of is <= PD_FLOOR.
    """
    X = symmetrize(X)
    P = symmetrize(P)
    if X.shape != P.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {P.shape}")
    return _half(P, X), _half(X, P)


def symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n covariance matrix, descending.

    The eigenvalues of J gamma come in pairs +/- i lambda_j; the n moduli are
    recovered by sorting all 2n moduli and keeping every second entry.
    Physical states have every lambda_j >= 1/2.
    """
    gamma = symmetrize(gamma)
    m = gamma.shape[0]
    if m % 2 != 0:
        raise ValueError(f"covariance matrix must be 2n x 2n, got {m} x {m}")
    n = m // 2
    J = np.zeros((m, m))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    moduli = np.sort(np.abs(np.linalg.eigvals(J @ gamma)))
    return moduli[::2][::-1].copy()


def alt_inequality_gap(X: np.ndarray, P: np.ndarray) -> float:
    """tr sqrt(sqrt(X) P sqrt(X)) - tr(sqrt(X) sqrt(P)), nonnegative for PSD pairs.

    The Araki-Lieb-Thirring trace inequality guarantees a gap >= 0; anything
    below -1e-9 would indicate a numerical defect.
    """
    return quantum_bound(X, P) - float(np.trace(sqrt_psd(X) @ sqrt_psd(P)))
