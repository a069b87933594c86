"""State container: validation, serialization, physicality, transposition."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

from cvwitness.states import (
    StateFormatError,
    builtin_state,
    is_physical,
    load_state,
    make_state,
    partial_transpose,
    save_state,
)


def _thermal(n: int, nu: float = 0.7) -> tuple[np.ndarray, np.ndarray]:
    return nu * np.eye(n), nu * np.eye(n)


def test_make_state_basic():
    s = make_state(*_thermal(3), label="thermal")
    assert s.n == 3
    assert not s.has_error_model
    assert s.label == "thermal"
    with pytest.raises(ValueError):
        s.gamma_xx[0, 0] = 2.0  # blocks are read-only


def test_make_state_symmetrizes_small_asymmetry():
    g = 0.5 * np.eye(2)
    g_noisy = g.copy()
    g_noisy[0, 1] = 1e-12
    s = make_state(g_noisy, g)
    assert s.gamma_xx[0, 1] == s.gamma_xx[1, 0]


def test_make_state_rejects_bad_blocks():
    g = 0.5 * np.eye(2)
    bad = g.copy()
    bad[0, 1] = 0.1  # asymmetric beyond tolerance
    with pytest.raises(StateFormatError):
        make_state(bad, g)
    with pytest.raises(StateFormatError):
        make_state(g, np.eye(3) / 2)
    with pytest.raises(StateFormatError):
        make_state(g, g, -0.1 * np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(StateFormatError):
        make_state(g, g, np.ones((2, 2)), None)
    with pytest.raises(StateFormatError):
        make_state(np.full((2, 2), np.nan), g)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_make_state_refuses_a_non_square_gamma_xx(shape):
    cause = f"gamma_xx must be square, got shape {shape}"
    with pytest.raises(StateFormatError, match=re.escape(cause)):
        make_state(np.ones(shape), np.eye(2))


def test_load_state_from_dict_text_and_file(tmp_path):
    doc = {
        "n": 2,
        "gamma_xx": [[1.0, 0.1], [0.1, 1.0]],
        "gamma_pp": [[1.0, -0.1], [-0.1, 1.0]],
    }
    s1 = load_state(doc)
    s2 = load_state(json.dumps(doc))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    s3 = load_state(path)
    for s in (s1, s2, s3):
        assert s.n == 2
        assert np.allclose(s.gamma_xx, doc["gamma_xx"])
    assert s1.label == load_state({**doc, "label": None}).label == ""


def test_load_state_errors():
    with pytest.raises(StateFormatError):
        load_state({"n": 2, "gamma_xx": [[1, 0], [0, 1]]})
    with pytest.raises(StateFormatError):
        load_state(
            {
                "n": 3,
                "gamma_xx": [[1, 0], [0, 1]],
                "gamma_pp": [[1, 0], [0, 1]],
            }
        )
    with pytest.raises(StateFormatError):
        load_state("{not valid json")
    with pytest.raises(StateFormatError):
        load_state('{"n": "x"}')
    # Entries must be JSON numbers: float() would read "1" and true as 1.0.
    eye = [[1, 0], [0, 1]]
    for bad in ([["1", 0], [0, 1]], [[True, 0], [0, 1]], [[1, True], [True, 1]]):
        with pytest.raises(StateFormatError, match="gamma_pp has an entry that is not a number"):
            load_state({"n": 2, "gamma_xx": eye, "gamma_pp": bad})
    with pytest.raises(StateFormatError, match="label must be a string"):
        load_state({"n": 2, "gamma_xx": eye, "gamma_pp": eye, "label": {"a": 1}})
    # An integer beyond float range, read exactly from JSON, is not finite.
    big = {"n": 1, "gamma_xx": [[1]], "gamma_pp": [[10**400]]}
    for source in (big, json.dumps(big)):
        with pytest.raises(StateFormatError, match="gamma_pp contains non-finite entries"):
            load_state(source)


@pytest.mark.parametrize("n", [None, True, False, 2.0, [2], "2"])
def test_load_state_requires_integer_n(n):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    doc = {"n": n, "gamma_xx": eye, "gamma_pp": eye}
    for source in (doc, json.dumps(doc)):
        with pytest.raises(StateFormatError, match="'n' must be an integer"):
            load_state(source)


def test_save_load_round_trip(tmp_path, klev4):
    path = tmp_path / "klev4.json"
    save_state(klev4, path)
    back = load_state(path)
    assert back.n == klev4.n
    assert np.array_equal(back.gamma_xx, klev4.gamma_xx)
    assert np.array_equal(back.gamma_pp, klev4.gamma_pp)
    assert np.array_equal(back.sigma_xx, klev4.sigma_xx)
    assert np.array_equal(back.sigma_pp, klev4.sigma_pp)


def test_save_load_keeps_signed_zeros(tmp_path, ppt4):
    # Flipping mode 1 turns the four zeros in gamma_pp's first row and column
    # into -0.0. The file must say -0.0: JSON's -0 would read back as +0.0.
    flipped = partial_transpose(ppt4, [1])
    path = tmp_path / "flipped.json"
    save_state(flipped, path)
    back = load_state(path)
    assert (np.signbit(flipped.gamma_pp) & (flipped.gamma_pp == 0)).sum() == 4
    for name in ("gamma_xx", "gamma_pp"):
        want, got = getattr(flipped, name), getattr(back, name)
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
        assert np.array_equal(got, want)
    # One line of JSON, as --json writes.
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text)["n"] == 4


def test_is_physical_vacuum_and_thermal():
    ok, low = is_physical(make_state(0.5 * np.eye(3), 0.5 * np.eye(3)))
    assert ok and low == pytest.approx(0.5)
    ok, low = is_physical(make_state(*_thermal(2, 1.4)))
    assert ok and low == pytest.approx(1.4)


def test_is_physical_rejects_indefinite_blocks():
    # J gamma has eigenvalues +/- i for this gamma, so symplectic moduli alone
    # read 1; but a negative variance is unphysical whatever the spectrum.
    flip = np.diag([-1.0, 1.0])
    assert is_physical(make_state(flip, flip)) == (False, 0.0)
    assert is_physical(make_state(np.eye(2), flip)) == (False, 0.0)


def test_is_physical_squeezed_and_below_vacuum():
    r = 0.9
    s = make_state(
        np.diag([np.exp(2 * r)]) / 2, np.diag([np.exp(-2 * r)]) / 2
    )
    ok, low = is_physical(s)
    assert ok and low == pytest.approx(0.5)
    bad = make_state(0.3 * np.eye(2), 0.3 * np.eye(2))
    ok, low = is_physical(bad)
    assert not ok and low == pytest.approx(0.3)


def _min_symplectic(gxx, gpp):
    return float(np.sqrt(np.linalg.eigvals(gxx @ gpp).real.min()))


def test_min_symplectic_eigenvalue_is_superadditive():
    # nu_min(gamma + tau I) >= nu_min(gamma) + tau: a state within tau of the
    # vacuum bound has a physical neighbour tau * I away. Margin-mode search
    # relies on it; the spectra here come from eig(gxx gpp), not the library.
    gen = np.random.default_rng(1503)
    for _ in range(500):
        n = int(gen.integers(1, 7))
        A, B = gen.standard_normal((2, n, n))
        gxx = A @ A.T + 1e-3 * np.eye(n)
        gpp = B @ B.T + 1e-3 * np.eye(n)
        tau = float(gen.uniform(0.0, 1.0))
        eye = tau * np.eye(n)
        low = _min_symplectic(gxx, gpp) + tau
        assert _min_symplectic(gxx + eye, gpp + eye) >= low * (1 - 1e-9)


def test_builtin_ppt4_matrices(ppt4):
    gxx = 0.5 * np.array(
        [[2, 0, 1, 0], [0, 2, 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]], dtype=float
    )
    gpp = 0.5 * np.array(
        [[1, 0, 0, -1], [0, 1, -1, 0], [0, -1, 4, 0], [-1, 0, 0, 4]], dtype=float
    )
    assert np.array_equal(ppt4.gamma_xx, gxx)
    assert np.array_equal(ppt4.gamma_pp, gpp)
    assert not ppt4.has_error_model
    ok, low = is_physical(ppt4)
    assert ok and low == pytest.approx(0.5, abs=1e-12)


def test_builtin_klev4_properties(klev4):
    assert klev4.n == 4
    assert klev4.has_error_model
    assert np.all(klev4.sigma_xx >= 0)
    # The published covariances are slightly below the physicality threshold;
    # the library must report that honestly.
    ok, low = is_physical(klev4)
    assert not ok
    assert low == pytest.approx(0.4437, abs=5e-4)


def test_builtin_vacuum4_control():
    vac = builtin_state("vacuum4")
    assert vac.n == 4 and vac.label == "vacuum4"
    assert np.array_equal(vac.gamma_xx, 0.5 * np.eye(4))
    assert np.array_equal(vac.gamma_pp, 0.5 * np.eye(4))
    assert np.array_equal(vac.sigma_xx, 0.01 * np.ones((4, 4)))
    ok, low = is_physical(vac)
    assert ok and low == pytest.approx(0.5, abs=1e-12)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_state("nope")


def test_partial_transpose_involution_and_xx_invariance(ppt4):
    for modes in ([1], [2], [1, 3], [1, 2, 3, 4]):
        pt = partial_transpose(ppt4, modes)
        assert np.array_equal(pt.gamma_xx, ppt4.gamma_xx)
        back = partial_transpose(pt, modes)
        assert np.array_equal(back.gamma_pp, ppt4.gamma_pp)


def test_partial_transpose_sign_pattern():
    gpp = np.arange(1, 10, dtype=float).reshape(3, 3)
    gpp = (gpp + gpp.T) / 2 + 10 * np.eye(3)
    s = make_state(10 * np.eye(3), gpp)
    pt = partial_transpose(s, [2])
    want = gpp.copy()
    want[0, 1] *= -1
    want[1, 0] *= -1
    want[1, 2] *= -1
    want[2, 1] *= -1
    assert np.array_equal(pt.gamma_pp, want)


def test_partial_transpose_detects_ppt4_structure(ppt4):
    # Single-mode flips break physicality, two-mode flips never do.
    for mode in (1, 2, 3, 4):
        ok, _ = is_physical(partial_transpose(ppt4, [mode]))
        assert not ok
    for pair in ([1, 2], [1, 3], [1, 4]):
        ok, _ = is_physical(partial_transpose(ppt4, pair))
        assert ok


def test_partial_transpose_validates_modes(ppt4):
    with pytest.raises(ValueError):
        partial_transpose(ppt4, [0])
    with pytest.raises(ValueError):
        partial_transpose(ppt4, [5])
    # duplicate labels collapse to one flip
    once = partial_transpose(ppt4, [1])
    twice = partial_transpose(ppt4, [1, 1])
    assert np.array_equal(once.gamma_pp, twice.gamma_pp)
