"""The solver structure kept per program: cold and warm solves agree bit for
bit, programs that differ only in their zero pattern do not share it, the
kept arrays are read-only, threads may share it, and the cache is bounded."""
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
    sdp._CACHE.clear()
    witness._werner_wolf_program.cache_clear()
    witness._lift_program.cache_clear()


def _fingerprint(reports) -> list[tuple]:
    """Every number a report carries, the matrices as bytes."""
    return [
        (r.G, r.sigma, r.bound, r.s, r.gap, r.converged, r.certificate.value)
        + tuple(M.tobytes() for M in (r.witness.X, r.witness.P))
        + tuple(M.tobytes() for M in (r.certificate.certificate_X, r.certificate.certificate_P))
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
def test_zero_patterns_do_not_share_a_structure(states, pair, modes):
    # Same n and cuts; one state of each pair has zeros in gamma or sigma
    # where the other has none. Whichever is solved first, the two then
    # solved in alternation match their own cold solves.
    for mode in modes:
        cold = {name: _cold(states[name], mode) for name in pair}
        for first, second in (pair, pair[::-1]):
            _cold(states[first], mode)
            for name in (second, first, second):
                assert _solve(states[name], mode) == cold[name], (name, mode)


def test_kept_arrays_are_read_only(states):
    _clear()
    for mode in ("margin", "score", "genuine"):
        _solve(states["klev4"], mode)
    assert len(sdp._CACHE) == 3
    for st, _ in sdp._CACHE.values():
        arrays = [a for a in vars(st).values() if isinstance(a, np.ndarray)]
        assert len(arrays) >= 12 and not any(a.flags.writeable for a in arrays)
    cuts = tuple(bipartitions(4))
    programs = [witness._werner_wolf_program(4, cuts)]
    programs += [witness._lift_program(4, cuts, shared) for shared in (False, True)]
    for program in programs:
        arrays = [a for a in program if isinstance(a, np.ndarray)]
        for block in next(p for p in program if isinstance(p, tuple)):
            arrays += list(vars(block).values())
        assert len(arrays) > 20 and not any(a.flags.writeable for a in arrays)


def test_threads_share_a_structure(states):
    # klev4 and a dense four-mode state have one score-mode structure.
    dense = _network_state(4, 3)
    serial = {id(s): _cold(s, "score") for s in (states["klev4"], dense)}
    jobs = [states["klev4"], dense] * 4
    _clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda s: _solve(s, "score"), jobs))
    assert len(sdp._CACHE) == 1
    assert all(g == serial[id(s)] for g, s in zip(got, jobs))


def test_a_warm_call_builds_no_structure(monkeypatch, states):
    built = []
    structure = sdp._Structure

    def counting(*args):
        built.append(1)
        return structure(*args)

    monkeypatch.setattr(sdp, "_Structure", counting)
    for mode in ("margin", "score", "genuine"):
        _cold(states["klev4"], mode)
        del built[:]
        misses = [f.cache_info().misses for f in (witness._werner_wolf_program, witness._lift_program)]
        _solve(states["klev4"], mode)
        _solve(_network_state(4, 3), mode)  # another dense state: one structure
        assert not built, mode
        assert misses == [
            f.cache_info().misses for f in (witness._werner_wolf_program, witness._lift_program)
        ]
        _solve(states["vacuum4"], mode)  # zero off-diagonals: a structure of its own
        assert len(built) == (mode != "margin")


def test_the_cache_keeps_at_most_its_budget(monkeypatch, states):
    _clear()
    _solve(states["klev4"], "score")
    _solve(states["klev4"], "genuine")
    sizes = [size for _, size in sdp._CACHE.values()]
    monkeypatch.setattr(sdp, "_CACHE_BYTES", max(sizes))
    _solve(states["klev4"], "margin")  # the least recently used goes first
    assert sum(size for _, size in sdp._CACHE.values()) <= max(sizes)
    monkeypatch.setattr(sdp, "_CACHE_BYTES", 0)
    _solve(states["vacuum4"], "genuine")  # too large to keep: built and dropped
    assert not sdp._CACHE
