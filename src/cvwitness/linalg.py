"""Dense symmetric-matrix primitives: eigendecompositions, PSD square roots,
symplectic spectra, and the quantumness bound with its analytic gradient, for
one pair of matrices or for stacks of equal-size pairs.

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


def eig_sym(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns (w, V) with A = V diag(w) V^T and orthonormal columns in V.
    """
    A = symmetrize(A)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for matrix with max |entry| "
            f"{np.abs(A).max():.3e}: {exc}"
        ) from exc
    return w[::-1].copy(), V[:, ::-1].copy()


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


def _mT(A: np.ndarray) -> np.ndarray:
    return A.transpose(0, 2, 1)


def _pair_stack(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # What symmetrize does for one matrix, for two equal (m, k, k) stacks.
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    if X.ndim != 3 or X.shape[1] != X.shape[2] or X.shape != P.shape:
        raise ValueError(
            f"expected two (m, k, k) stacks, got {X.shape} and {P.shape}"
        )
    if not (np.isfinite(X).all() and np.isfinite(P).all()):
        raise ValueError("matrix contains non-finite entries")
    return (X + _mT(X)) / 2.0, (P + _mT(P)) / 2.0


def quantum_bound_stack(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """B(X_i, P_i) for each pair of two (m, k, k) stacks, as an (m,) array.

    One eigh and two eigvalsh calls per stack; each matrix gets the same bits
    as a call on it alone. For k = 1, B = sqrt(sqrt(x) p sqrt(x)) directly,
    which is bit-identical to the eigen path. Raises NotPSD for the first
    matrix with an eigenvalue below -PSD_TOL, in X before P.
    """
    X, P = _pair_stack(X, P)
    if X.shape[1] == 1:
        wX, wP = X[:, :, 0], P[:, :, 0]
    else:
        wX, VX = np.linalg.eigh(X)
        wP = np.linalg.eigvalsh(P)
    bad = (wX[:, 0] < -PSD_TOL) | (wP[:, 0] < -PSD_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if wX[i, 0] < -PSD_TOL:
            raise NotPSD(wX[i, 0], "sqrt_psd argument")
        raise NotPSD(wP[i, 0], "quantum_bound second argument")
    rX = np.sqrt(np.clip(wX, 0.0, None))
    if X.shape[1] == 1:
        return np.sqrt(np.clip(rX * P[:, :, 0] * rX, 0.0, None))[:, 0]
    sX = (VX * rX[:, None, :]) @ _mT(VX)
    inner = np.clip(np.linalg.eigvalsh(sX @ P @ sX), 0.0, None)
    # The square root amplifies eigenvalue rounding noise near zero
    # (sqrt(1e-15) ~ 3e-8); components 13 orders below the top are noise.
    inner[inner < 1e-13 * inner[:, -1:]] = 0.0
    return np.sqrt(inner).sum(axis=1)


def quantum_bound(X: np.ndarray, P: np.ndarray) -> float:
    """The quantumness bound B(X, P) = tr sqrt(sqrt(X) P sqrt(X)).

    Lower bound on tr(X gxx) + tr(P gpp) over all physical covariance blocks;
    symmetric in its arguments and defined for all PSD pairs. The one-matrix
    case of quantum_bound_stack.
    """
    X = symmetrize(X)
    P = symmetrize(P)
    if X.shape != P.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {P.shape}")
    return float(quantum_bound_stack(X[None], P[None])[0])


def _half_stack(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, ...]:
    # 1/2 sqrt(A) (sqrt(A) B sqrt(A))^{-1/2} sqrt(A) per matrix, with the
    # smallest eigenvalues of A and of sqrt(A) B sqrt(A). Lanes at or below
    # PD_FLOOR run on placeholder eigenvalues of 1, so no sqrt or division
    # sees them; their result is meaningless.
    wA, VA = np.linalg.eigh(A)
    ok = wA[:, :1] > PD_FLOOR
    sA = (VA * np.sqrt(np.where(ok, wA, 1.0))[:, None, :]) @ _mT(VA)
    w, V = np.linalg.eigh(sA @ B @ sA)
    ok &= w[:, :1] > PD_FLOOR
    inv_root = (V / np.sqrt(np.where(ok, w, 1.0))[:, None, :]) @ _mT(V)
    M = 0.5 * sA @ inv_root @ sA
    return (M + _mT(M)) / 2.0, wA[:, 0], w[:, 0]


def _gradient_stack(
    X: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Gradients of B over two stacks, plus per matrix the first eigenvalue
    # that failed the PD_FLOOR test, in the order the one-matrix gradient
    # checks them (inf where none did).
    X, P = _pair_stack(X, P)
    dX, *lows = _half_stack(P, X)
    dP, *more = _half_stack(X, P)
    low = np.full(X.shape[0], np.inf)
    for w in reversed(lows + more):
        low = np.where(w <= PD_FLOOR, w, low)
    return dX, dP, low


def quantum_bound_gradient_stack(
    X: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of B for each pair of two (m, k, k) stacks.

    Returns (dX, dP, singular): singular[i] marks the matrices for which
    quantum_bound_gradient raises SingularGradient; their dX[i], dP[i] are
    meaningless. Every other matrix gets the same bits as a call on it alone.
    """
    dX, dP, low = _gradient_stack(X, P)
    return dX, dP, low <= PD_FLOOR


def quantum_bound_gradient(
    X: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of quantum_bound for strictly PD inputs.

    dX = 1/2 sqrt(P) (sqrt(P) X sqrt(P))^{-1/2} sqrt(P) and symmetrically for
    dP.  Entry (i, j) is the half-derivative along e_ij + e_ji; the directional
    derivative along a symmetric direction D is <dX, D>.
    """
    X = symmetrize(X)
    P = symmetrize(P)
    if X.shape != P.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {P.shape}")
    dX, dP, low = _gradient_stack(X[None], P[None])
    if low[0] <= PD_FLOOR:
        raise SingularGradient(low[0])
    return dX[0], dP[0]


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
