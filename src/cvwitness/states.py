"""Continuous-variable Gaussian states as diagonal-block covariance data.

A state is the pair of second-moment blocks (gamma_xx, gamma_pp), optionally
with per-element standard deviations (sigma_xx, sigma_pp) from measurement.
Cross correlations between positions and momenta are out of scope; every
formula in this package is stated for the block-diagonal form.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .linalg import NotPSD, _frozen, _spectrum

# A state is physical when its symplectic spectrum stays above the vacuum
# value 1/2; printed 5-decimal data may sit slightly below, hence the slack.
PHYSICALITY_TOL = 1e-9


class StateFormatError(ValueError):
    """Raised for malformed or inconsistent state documents."""


@dataclass(frozen=True, eq=False)
class CVState:
    """n-mode Gaussian state: covariance blocks plus optional error model."""

    n: int
    gamma_xx: np.ndarray
    gamma_pp: np.ndarray
    sigma_xx: np.ndarray | None = None
    sigma_pp: np.ndarray | None = None
    label: str = ""

    @property
    def has_error_model(self) -> bool:
        return self.sigma_xx is not None and self.sigma_pp is not None

    @cached_property
    def _physicality(self) -> tuple[bool, float]:
        """Computed once, from blocks that are read-only: see is_physical."""
        try:
            smallest = float(np.sqrt(_spectrum(self.gamma_xx, self.gamma_pp)[0]))
        except NotPSD:
            return False, 0.0
        return smallest >= 0.5 - PHYSICALITY_TOL, smallest


def _as_block(raw, n: int, name: str, nonnegative: bool = False) -> np.ndarray:
    A = np.asarray(raw, dtype=object)  # as given: float() would take "1" and true
    if A.shape != (n, n):
        raise StateFormatError(f"{name} must be {n}x{n}, got shape {A.shape}")
    if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in A.flat):
        raise StateFormatError(f"{name} has an entry that is not a number")
    try:
        A = A.astype(float)
    except OverflowError:  # an integer beyond float range, such as 10**400
        raise StateFormatError(f"{name} contains non-finite entries") from None
    if not np.all(np.isfinite(A)):
        raise StateFormatError(f"{name} contains non-finite entries")
    if np.abs(A - A.T).max() > 1e-8:
        raise StateFormatError(f"{name} is asymmetric beyond 1e-8")
    if nonnegative and A.min() < 0:
        raise StateFormatError(f"{name} has negative entries")
    return _frozen((A + A.T) / 2.0)


def make_state(
    gamma_xx,
    gamma_pp,
    sigma_xx=None,
    sigma_pp=None,
    label: str | None = "",
) -> CVState:
    """Validate raw arrays and assemble a CVState; a label of None is no label."""
    if label is not None and not isinstance(label, str):
        raise StateFormatError(f"label must be a string, got {label!r}")
    gxx = np.asarray(gamma_xx, dtype=object)
    if gxx.ndim != 2 or gxx.shape[0] != gxx.shape[1]:
        raise StateFormatError(f"gamma_xx must be square, got shape {gxx.shape}")
    n = gxx.shape[0]
    state = CVState(
        n=n,
        gamma_xx=_as_block(gamma_xx, n, "gamma_xx"),
        gamma_pp=_as_block(gamma_pp, n, "gamma_pp"),
        sigma_xx=None if sigma_xx is None else _as_block(sigma_xx, n, "sigma_xx", True),
        sigma_pp=None if sigma_pp is None else _as_block(sigma_pp, n, "sigma_pp", True),
        label=label or "",
    )
    if (state.sigma_xx is None) != (state.sigma_pp is None):
        raise StateFormatError("sigma_xx and sigma_pp must be given together")
    return state


def _read_document(source, what: str, fields: tuple[str, ...]) -> tuple[dict, int]:
    """Parse a JSON document from a file path, JSON text or dict.

    It must be an object holding "n", a JSON integer (not a bool, float or
    null), and every one of fields. Returns (document, n).
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError(f"{what} document must be a JSON object")
    for field in ("n",) + fields:
        if field not in doc:
            raise StateFormatError(f"{what} document is missing field {field!r}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateFormatError(f"field 'n' must be an integer, got {n!r}")
    return doc, n


def load_state(source) -> CVState:
    """Load a state from a JSON file path, JSON text, or parsed dict.

    Expected document: {"n": int, "gamma_xx": [[...]], "gamma_pp": [[...]],
    optional "sigma_xx"/"sigma_pp" of the same shape, optional "label"}.
    """
    doc, n = _read_document(source, "state", ("gamma_xx", "gamma_pp"))
    state = make_state(
        doc["gamma_xx"],
        doc["gamma_pp"],
        doc.get("sigma_xx"),
        doc.get("sigma_pp"),
        doc.get("label"),
    )
    if state.n != n:
        raise StateFormatError(
            f"declared n={n} does not match {state.n}x{state.n} blocks"
        )
    return state


def save_state(state: CVState, path) -> None:
    """Write a state as one line of JSON; every float keeps its shortest exact
    form, signed zeros included, so a round trip is exact."""
    doc = {"n": state.n, **({"label": state.label} if state.label else {})}
    for key in ("gamma_xx", "gamma_pp", "sigma_xx", "sigma_pp"):
        if (block := getattr(state, key)) is not None:
            doc[key] = block.tolist()
    Path(path).write_text(json.dumps(doc) + "\n")


def is_physical(state: CVState) -> tuple[bool, float]:
    """Physicality test: every symplectic eigenvalue of diag(gxx, gpp) >= 1/2.

    Returns (verdict, minimum symplectic eigenvalue) so marginal states can be
    reported with their margin instead of failing hard. A block that is not
    PSD gives (False, 0.0): 0 is the limit of the minimum as a block loses
    definiteness. Each state works this out once.
    """
    return state._physicality


def partial_transpose(state: CVState, modes: Iterable[int]) -> CVState:
    """Momentum sign flip on the given modes (1-based); an exact involution."""
    modes = set(int(m) for m in modes)
    for m in modes:
        if not 1 <= m <= state.n:
            raise ValueError(f"mode {m} out of range 1..{state.n}")
    signs = np.ones(state.n)
    signs[[m - 1 for m in modes]] = -1.0
    # exact +/- flips
    return replace(state, gamma_pp=_frozen(state.gamma_pp * np.outer(signs, signs)))


_PPT4_GXX = 0.5 * np.array([[2, 0, 1, 0], [0, 2, 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]])
_PPT4_GPP = 0.5 * np.array([[1, 0, 0, -1], [0, 1, -1, 0], [0, -1, 4, 0], [-1, 0, 0, 4]])

_KLEV4_GXX = [
    [1.09921, 0.16092, -0.17609, -0.84831],
    [0.16092, 0.40938, -0.16060, -0.18963],
    [-0.17609, -0.16060, 0.46060, 0.04319],
    [-0.84831, -0.18963, 0.04319, 1.06419],
]
_KLEV4_GPP = [
    [1.09921, 0.35533, 0.36439, 0.91386],
    [0.35533, 0.92282, 0.57440, 0.43388],
    [0.36439, 0.57440, 1.04339, 0.34868],
    [0.91386, 0.43388, 0.34868, 1.06419],
]
_KLEV4_SXX = [
    [0.00327, 0.01041, 0.00894, 0.00647],
    [0.01041, 0.00822, 0.01848, 0.01899],
    [0.00894, 0.01848, 0.00861, 0.01345],
    [0.00647, 0.01899, 0.01345, 0.00549],
]
_KLEV4_SPP = [
    [0.00458, 0.01009, 0.02767, 0.04289],
    [0.01009, 0.01023, 0.02101, 0.02085],
    [0.02767, 0.02101, 0.01466, 0.01955],
    [0.04289, 0.02085, 0.01955, 0.00455],
]


# Reference witness certifying genuine four-partite entanglement of klev4,
# and the values `reproduce genuine4` expects of it.
GENUINE_X = _frozen(
    [
        [0.39234, -0.20267, 0.24691, 0.30527],
        [-0.20267, 0.88526, 0.09450, 0.09080],
        [0.24691, 0.09450, 0.58391, 0.20795],
        [0.30527, 0.09080, 0.20795, 0.39504],
    ]
)
GENUINE_P = _frozen(
    [
        [0.22992, -0.13140, -0.00477, -0.11723],
        [-0.13140, 0.52598, -0.32316, -0.16699],
        [-0.00477, -0.32316, 0.39949, 0.06971],
        [-0.11723, -0.16699, 0.06971, 0.31242],
    ]
)
GENUINE_EXPECTED = {
    "G": 1.47484,
    "sigma": 0.01947,
    "bounds": {
        "1|234": 1.65474, "2|134": 1.66193, "3|124": 1.56935, "4|123": 1.63974,
        "12|34": 1.81056, "13|24": 1.74993, "14|23": 1.56114,
    },
    "min_s": 4.43,
}

# Parameters of the witness that detects ppt4 across 12|34, the witness
# itself, and the values `reproduce ppt4` expects: G on ppt4 and the
# closed-form B_12|34 = 2 (sqrt(x p) + sqrt(y q)).
PPT4_PARAMS = {"x": 0.144375, "y": 0.084087, "p": 0.232000, "q": 0.039543}
PPT4_EXPECTED = {"G": 0.435170, "B_12|34": 0.481359}


def _ppt4_witness(x, y, p, q) -> tuple[np.ndarray, np.ndarray]:
    c, d = np.sqrt(x * y), np.sqrt(p * q)
    X = [[x, 0, -c, 0], [0, x, 0, c], [-c, 0, y, 0], [0, c, 0, y]]
    P = [[p, 0, 0, d], [0, p, d, 0], [0, d, q, 0], [d, 0, 0, q]]
    return _frozen(X), _frozen(P)


PPT4_X, PPT4_P = _ppt4_witness(**PPT4_PARAMS)

# Expected Table 1 entries per key and n, as printed to two decimals.
TABLE1_EXPECTED = {
    "q": {2: 0.0, 3: 3.46, 4: 8.48, 5: 15.49, 6: 24.49, 7: 35.49, 8: 48.49},
    "a": {3: 5.00, 4: 10.03, 5: 17.06, 6: 26.07, 7: 37.08, 8: 50.09},
    "b": {3: 5.46, 4: 10.89, 5: 18.26, 6: 27.59, 7: 38.89, 8: 52.17},
    "f": {2: 2.0, 3: 6.0, 4: 12.0, 5: 20.0, 6: 30.0, 7: 42.0, 8: 56.0},
}

_VACUUM4, _VACUUM4_SIGMA = 0.5 * np.eye(4), 0.01 * np.ones((4, 4))
_BUILTINS = {
    "ppt4": lambda: make_state(_PPT4_GXX, _PPT4_GPP, label="ppt4"),
    "klev4": lambda: make_state(
        _KLEV4_GXX, _KLEV4_GPP, _KLEV4_SXX, _KLEV4_SPP, label="klev4"
    ),
    "vacuum4": lambda: make_state(
        _VACUUM4, _VACUUM4, _VACUUM4_SIGMA, _VACUUM4_SIGMA, label="vacuum4"
    ),
}
BUILTIN_STATES = tuple(_BUILTINS)


def builtin_state(name: str) -> CVState:
    """Bundled example states.

    "ppt4": four-mode bound-entangled state, positive under every (2,2)
    partial transpose; the optimal margin is 0.11536 on 1|234, 2|134, 3|124,
    4|123 and 12|34, while 13|24 and 14|23 stay undecided at margin 0, as the
    state sits on the physicality boundary. No error model.
    "klev4": measured four-mode covariance with per-element standard
    deviations (5-decimal published values).
    "vacuum4": separable negative control, vacuum blocks with uniform 1%
    errors.
    """
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown builtin state {name!r} (try one of {', '.join(BUILTIN_STATES)})"
        )
    return _BUILTINS[name]()
