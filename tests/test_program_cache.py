"""The solver structure kept with each program: cold and warm solves agree
bit for bit, states with the same n and cuts share it whatever their zero
pattern, the kept arrays are read-only, and threads may share it."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cvwitness import sdp, witness
from cvwitness.partitions import bipartitions
from cvwitness.states import make_state
from cvwitness.witness import genuine_search, optimize_witness
from test_rank_one_sweep import _network_state


def _clear() -> None:
    witness._werner_wolf_program.cache_clear()
    witness._lift_program.cache_clear()


def _misses() -> list[int]:
    """How many programs each builder has built since _clear."""
    return [f.cache_info().misses for f in (witness._werner_wolf_program, witness._lift_program)]


def _fingerprint(reports) -> list[tuple]:
    """Every number a report carries, the matrices as bytes."""
    return [
        (r.G, r.sigma, r.bound, r.s, r.gap, r.converged)
        + tuple(M.tobytes() for M in (r.witness.X, r.witness.P))
        for r in reports
    ]


def _solve(s, mode: str) -> list[tuple]:
    if mode == "genuine":
        return _fingerprint(genuine_search(s, s_level=4.0)[2])
    return _fingerprint(optimize_witness(s, bipartitions(s.n), no_error=mode == "margin"))


def _cold(s, mode: str) -> list[tuple]:
    _clear()
    return _solve(s, mode)


@pytest.fixture(scope="module")
def states(klev4, ppt4, vacuum4):
    # ppt4's gamma has zero off-diagonals; with an error model it runs in
    # every mode. The last state's sigma has zero entries.
    sig = np.full((4, 4), 0.01)
    holes = klev4.sigma_xx * (np.add.outer(range(4), range(4)) % 3 != 1)
    return {
        "ppt4": ppt4,
        "ppt4+sigma": make_state(ppt4.gamma_xx, ppt4.gamma_pp, sig, sig),
        "klev4": klev4,
        "vacuum4": vacuum4,
        "net5": _network_state(5, 1),
        "klev4-holes": make_state(klev4.gamma_xx, klev4.gamma_pp, holes, klev4.sigma_pp),
    }


CASES = [("ppt4", "margin")] + [
    (name, mode) for name in ("klev4", "vacuum4", "net5") for mode in ("margin", "score", "genuine")
]


@pytest.mark.parametrize("name, mode", CASES)
def test_cold_and_warm_solves_are_bit_equal(states, name, mode):
    cold = _cold(states[name], mode)
    assert _solve(states[name], mode) == cold
    assert _solve(states[name], mode) == cold


@pytest.mark.parametrize(
    "pair, modes",
    [
        (("ppt4+sigma", "klev4"), ("margin", "score", "genuine")),
        (("klev4", "vacuum4"), ("genuine",)),
        (("klev4", "klev4-holes"), ("score", "genuine")),
    ],
)
def test_zero_patterns_share_a_structure(states, pair, modes):
    # Same n and cuts; one state of each pair has zeros in gamma or sigma
    # where the other has none. Both are solved with one structure, and
    # whichever is solved first, the two then solved in alternation match
    # their own cold solves.
    for mode in modes:
        cold = {name: _cold(states[name], mode) for name in pair}
        for first, second in (pair, pair[::-1]):
            _cold(states[first], mode)
            for name in (second, first, second):
                assert _solve(states[name], mode) == cold[name], (name, mode)
            assert _misses() == ([1, 0] if mode == "margin" else [0, 1]), mode


def test_kept_arrays_are_read_only(states):
    _clear()
    for mode in ("margin", "score", "genuine"):
        _solve(states["klev4"], mode)
    assert _misses() == [1, 2]
    cuts = tuple(bipartitions(4))
    programs = [witness._werner_wolf_program(4, cuts)]
    programs += [witness._lift_program(4, cuts, shared) for shared in (False, True)]
    assert _misses() == [1, 2]
    for program in programs:
        (st,) = [p for p in program if isinstance(p, sdp.Structure)]
        arrays = [a for a in vars(st).values() if isinstance(a, np.ndarray)]
        assert len(arrays) >= 12 and not any(a.flags.writeable for a in arrays)
        arrays = [a for a in program if isinstance(a, np.ndarray)]
        for block in next(p for p in program if isinstance(p, tuple)):
            arrays += list(vars(block).values())
        assert len(arrays) > 20 and not any(a.flags.writeable for a in arrays)
        # The per-cut or per-copy tuples last: their index arrays, however nested.
        nested = list(_arrays_in(program[-1]))
        assert len(nested) >= 4 and not any(a.flags.writeable for a in nested)


def _arrays_in(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _arrays_in(item)


def test_threads_share_a_structure(states):
    # klev4 and a dense four-mode state have one score-mode structure.
    dense = _network_state(4, 3)
    serial = {id(s): _cold(s, "score") for s in (states["klev4"], dense)}
    jobs = [states["klev4"], dense] * 4
    _clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda s: _solve(s, "score"), jobs))
    assert witness._lift_program.cache_info().currsize == 1
    assert all(g == serial[id(s)] for g, s in zip(got, jobs))


def test_a_warm_call_builds_no_structure(monkeypatch, states):
    built = []
    structure = sdp.Structure

    def counting(*args):
        built.append(1)
        return structure(*args)

    monkeypatch.setattr(sdp, "Structure", counting)
    for mode in ("margin", "score", "genuine"):
        _cold(states["klev4"], mode)
        assert len(built) == 1, mode
        del built[:]
        misses = _misses()
        _solve(states["klev4"], mode)
        _solve(_network_state(4, 3), mode)  # another dense state: one structure
        _solve(states["vacuum4"], mode)  # zero off-diagonals: the same structure
        assert not built, mode
        assert misses == _misses()
