"""Shared fixtures: builtin states, the four-mode reference witness, and
the one-block lift with the two oracles for its dual matrix."""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness import WitnessPair, builtin_state, sdp
from cvwitness.linalg import sqrt_psd
from cvwitness.states import GENUINE_P, GENUINE_X

# Reference optima: per bipartition, the attained bound and the freed entries
# of X and P at the maximum (upper triangle, 0-based).
CERTIFICATE_EDITS = {
    "1|234": (
        1.65474,
        {(0, 1): -0.10873, (0, 2): 0.158136, (0, 3): 0.116524},
        {(0, 1): -0.11914, (0, 2): 0.113758, (0, 3): 0.083761},
    ),
    "2|134": (
        1.66193,
        {(0, 1): -0.07310, (1, 2): -0.03586, (1, 3): -0.01993},
        {(0, 1): -0.05400, (1, 2): -0.01432, (1, 3): 0.02340},
    ),
    "3|124": (
        1.56935,
        {(0, 2): 0.22149, (1, 2): -0.01671, (2, 3): 0.24154},
        {(0, 2): 0.02836, (1, 2): -0.07629, (2, 3): 0.12842},
    ),
    "4|123": (
        1.63974,
        {(0, 3): 0.15483, (1, 3): 0.04047, (2, 3): 0.23966},
        {(0, 3): 0.05094, (1, 3): -0.05608, (2, 3): 0.12953},
    ),
    "12|34": (
        1.81056,
        {(0, 2): 0.19766, (0, 3): 0.11649, (1, 2): -0.02260, (1, 3): 0.03156},
        {(0, 2): 0.11949, (0, 3): 0.06522, (1, 2): -0.02001, (1, 3): 0.02362},
    ),
    "13|24": (
        1.74993,
        {(0, 1): -0.10013, (0, 3): 0.12997, (1, 2): -0.03695, (2, 3): 0.25436},
        {(0, 1): -0.07273, (0, 3): 0.06225, (1, 2): -0.05209, (2, 3): 0.17734},
    ),
    "14|23": (
        1.56114,
        {(0, 1): -0.11435, (0, 2): 0.18571, (1, 3): -0.02360, (2, 3): 0.25307},
        {(0, 1): -0.09531, (0, 2): 0.05497, (1, 3): -0.02171, (2, 3): 0.12643},
    ),
}


def _edited(M: np.ndarray, edits: dict) -> np.ndarray:
    out = M.copy()
    for (i, j), v in edits.items():
        out[i, j] = out[j, i] = v
    return out


@pytest.fixture(scope="session")
def klev4():
    return builtin_state("klev4")


@pytest.fixture(scope="session")
def ppt4():
    return builtin_state("ppt4")


@pytest.fixture(scope="session")
def vacuum4():
    return builtin_state("vacuum4")


@pytest.fixture(scope="session")
def genuine_witness():
    return WitnessPair(GENUINE_X, GENUINE_P)


@pytest.fixture(scope="session")
def printed_certificates():
    """Map partition text -> (reference bound, X', P')."""
    return {
        text: (value, _edited(GENUINE_X, ex), _edited(GENUINE_P, ep))
        for text, (value, ex, ep) in CERTIFICATE_EDITS.items()
    }


def _lift(A: np.ndarray, B: np.ndarray) -> tuple[sdp.Block, np.ndarray]:
    # Y is the only variable: y[a*k + e] sits at (a, k + e); b picks tr Y.
    k = len(A)
    a, e = np.divmod(np.arange(k * k), k)
    F0 = np.block([[A, np.zeros((k, k))], [np.zeros((k, k)), B]])
    return sdp.Block(F0, np.arange(k * k), a, k + e, np.ones(k * k)), (a == e) * 1.0


def _dual_gradient(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The dual objective of the lift is <W_XX, X> + <W_PP, P>, so at the
    # optimum its diagonal blocks are dB/dX and dB/dP (X, P positive definite).
    k = len(X)
    block, b = _lift(np.asarray(X, float), np.asarray(P, float))
    sol = sdp.solve(b, [block], np.zeros(k * k), sdp.Structure([block], np.full(k * k, -1)))
    assert sol.converged
    (W,) = sol.W
    return W[:k, :k], W[k:, k:]


def _closed_form_gradient(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # dB/dX = 1/2 sqrt(P) (sqrt(P) X sqrt(P))^{-1/2} sqrt(P), and dB/dP with X
    # and P swapped, for X and P positive definite.
    def half(A, B):
        sA = sqrt_psd(A)
        w, V = np.linalg.eigh(sA @ B @ sA)
        M = 0.5 * sA @ ((V / np.sqrt(w)) @ V.T) @ sA
        return (M + M.T) / 2.0

    X, P = np.asarray(X, float), np.asarray(P, float)
    return half(P, X), half(X, P)


@pytest.fixture(scope="session")
def lift():
    """(A, B) -> (block, b) of max{tr Y : [[A, Y], [Y^T, B]] PSD} = B(A, B)."""
    return _lift


@pytest.fixture(scope="session")
def dual_gradient():
    """(X, P) -> (W_XX, W_PP), the diagonal blocks of the lift's optimal dual."""
    return _dual_gradient


@pytest.fixture(scope="session")
def closed_form_gradient():
    """(X, P) -> (dB/dX, dB/dP) in closed form, a second oracle for the dual."""
    return _closed_form_gradient
