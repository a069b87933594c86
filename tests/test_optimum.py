"""Optimal witnesses from the convex solver, and what they certify.

Oracles: the sign-matrix LMI test (a violation implies a positive optimal
margin, by congruence), the optimal ppt4 margins found by an independent
derivative-free search, and the separable vacuum4 control.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cvwitness import sdp
from cvwitness.bounds import WitnessPair, lmi_separability_test
from cvwitness.cli import _certified, main
from cvwitness.partitions import bipartitions, parse_partition
from cvwitness.states import make_state
from cvwitness.witness import (
    genuine_search,
    optimize_witness,
    random_rank_one_search,
    rounding_bound,
    violation_score,
)
from test_rank_one_sweep import _network_state


def _random_state(gen: np.random.Generator, n: int):
    # Squeezed vacua (alternately in x and p) through a random orthogonal
    # network, plus thermal noise: physical, and near separable for weak
    # squeezing or strong noise.
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    r = gen.uniform(0.0, 0.6, n) * np.resize([1.0, -1.0], n)
    noise = gen.uniform(0.0, 0.4)
    gxx = (Q * np.exp(-2 * r) / 2) @ Q.T + noise * np.eye(n)
    gpp = (Q * np.exp(2 * r) / 2) @ Q.T + noise * np.eye(n)
    return make_state((gxx + gxx.T) / 2, (gpp + gpp.T) / 2)


def test_ppt4_optimal_margins(ppt4):
    reports = optimize_witness(ppt4, bipartitions(4), no_error=True)
    for r in reports:
        margin = r.bound - r.G
        assert r.converged and r.gap <= 1e-7 * (1 + abs(margin)), r.partition.text
        if r.partition.text in ("13|24", "14|23"):
            # On the physicality boundary, so the optimum is 0: undecided.
            assert abs(margin) <= 1e-6
            assert not _certified(r, ppt4, 0.0)
        else:
            assert margin == pytest.approx(0.11536, abs=1e-5), r.partition.text
            assert _certified(r, ppt4, 0.0)


def test_certification_threshold(ppt4):
    r = optimize_witness(ppt4, parse_partition("12|34", 4), no_error=True)
    bound = rounding_bound(r.witness, ppt4)
    assert 0 < bound < 1e-10
    for gap in (0.0, 1e-9):
        for factor, want in ((10.0, True), (0.1, False)):
            forged = replace(r, bound=r.G + gap + factor * bound, gap=gap)
            assert _certified(forged, ppt4, 0.0) is want


def test_margin_mode_certifies_every_lmi_flagged_cut(ppt4, klev4):
    gen = np.random.default_rng(2015)
    states = [ppt4, klev4]
    for i in range(200):
        s = _random_state(gen, 3 + i % 3)
        states.append(s)
        worst = -min(lmi_separability_test(s, p)[1] for p in bipartitions(s.n))
        if i % 10 == 0 and worst > 1e-5:
            # Noise shifts every LMI eigenvalue by itself: this copy's most
            # violated cut sits 2e-6 past the flagging threshold of 0.
            eye = (worst - 2e-6) * np.eye(s.n)
            states.append(make_state(s.gamma_xx + eye, s.gamma_pp + eye))
    flagged_cuts = 0
    for s in states:
        flagged = [p for p in bipartitions(s.n) if lmi_separability_test(s, p)[1] < -1e-6]
        for r in optimize_witness(s, flagged, no_error=True):
            assert _certified(r, s, 0.0), (r.partition.text, r.bound - r.G, r.gap)
        flagged_cuts += len(flagged)
    assert flagged_cuts > 500


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_vacuum4_genuine_control(capsys, tmp_path):
    dest = tmp_path / "control.json"
    begin = time.perf_counter()
    argv = ["search", "--state", "vacuum4", "--genuine", "--json", str(dest)]
    code, out = _run(capsys, *argv)
    assert time.perf_counter() - begin < 5.0
    assert code == 0 and out.rstrip().endswith("not found")
    rows = json.loads(dest.read_text())
    assert len(rows) == 7 and all(row["s"] <= 1e-6 for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "klev4", "--genuine"],
        ["--state", "ppt4", "--all-bipartitions", "--no-error"],
    ],
)
def test_solver_output_does_not_depend_on_the_seed(capsys, tmp_path, argv):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    code, _ = _run(capsys, "search", *argv, "--seed", "1", "--json", str(one))
    assert code == 1
    _run(capsys, "search", *argv, "--seed", "2", "--json", str(two))
    assert one.read_bytes() == two.read_bytes()
    rows = json.loads(one.read_text())
    if rows[0]["s"] is None:
        optima = [row["bound"] - row["G"] for row in rows]
    else:
        optima = [min(row["s"] for row in rows)] * len(rows)
    for row, optimum in zip(rows, optima):
        assert row["gap"] <= 1e-7 * (1 + abs(optimum))


def test_optimum_beats_every_random_witness(klev4):
    # Any witness is a feasible point, so no rank-one draw may beat the
    # optimum: per cut in both modes, and for the lowest level over all
    # bipartitions in the genuine search. Scores count only when positive:
    # below 0 the program's optimum is 0, whatever the best negative score.
    gen = np.random.default_rng(9)
    states = [klev4] + [_random_state(gen, n) for n in (3, 4, 5)]
    for s in states[1:]:
        sig = 0.002 + 0.01 * np.abs(s.gamma_xx), 0.002 + 0.01 * np.abs(s.gamma_pp)
        states[states.index(s)] = make_state(s.gamma_xx, s.gamma_pp, *sig)
    for s in states:
        parts = bipartitions(s.n)
        drawn = random_rank_one_search(s, parts, trials=65536, seed=4)
        for r, q in zip(optimize_witness(s, parts), drawn):
            assert q.s <= 0 or r.s >= q.s - 1e-6 * (1 + q.s), r.partition.text
        drawn = random_rank_one_search(s, parts, trials=65536, seed=4, no_error=True)
        for r, q in zip(optimize_witness(s, parts, no_error=True), drawn):
            # Random witnesses are not normalized: compare margins at G = 1.
            assert r.bound - r.G >= (q.bound - q.G) / q.G - 1e-9, r.partition.text
        found, w, reports = genuine_search(s, s_level=0.0)
        best = min(violation_score(w, s, p).s for p in parts)
        assert min(r.s for r in reports) == pytest.approx(best, abs=1e-12)
        for h, g in np.random.default_rng(1).standard_normal((200, 2, s.n)):
            draw = WitnessPair(np.outer(h, h), np.outer(g, g))
            low = min(violation_score(draw, s, p).s for p in parts)
            assert low <= max(best, 0.0) + 1e-6


def test_vacuum_controls_converge():
    # Separable, with a whole face of optimal witnesses (X = P): the Schur
    # complement turns numerically singular near the end, and the solver must
    # still close the gap and certify nothing.
    gen = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        sig = np.abs(gen.standard_normal((n, n))) * 0.01
        s = make_state(0.5 * np.eye(n), 0.5 * np.eye(n), sig + sig.T, sig + sig.T)
        parts = bipartitions(n)
        for r in optimize_witness(s, parts):
            assert r.converged and r.s <= 1e-6, r.partition.text
        for r in optimize_witness(s, parts, no_error=True):
            assert r.converged and not _certified(r, s, 0.0), r.partition.text


def _solutions(monkeypatch) -> list[sdp.Solution]:
    """Every Solution the searches get from the solver, in call order."""
    seen = []
    solve = sdp.solve

    def recording(*args):
        seen.append(solve(*args))
        return seen[-1]

    monkeypatch.setattr(sdp, "solve", recording)
    return seen


def _search(s, mode: str) -> None:
    if mode == "genuine":
        genuine_search(s, s_level=4.0)
    else:
        no_error = mode == "margin"
        optimize_witness(s, bipartitions(s.n), no_error=no_error)


@pytest.mark.parametrize(
    "name, mode, budget",
    [("ppt4", "margin", 11), ("klev4", "genuine", 17), ("vacuum4", "genuine", 7)],
)
def test_iteration_budgets(request, monkeypatch, name, mode, budget):
    # Interior-point steps of the one solve behind each search.
    solutions = _solutions(monkeypatch)
    _search(request.getfixturevalue(name), mode)
    (sol,) = solutions
    assert sol.converged and sol.iterations <= budget


def test_seeded_corpus_iteration_ceiling(monkeypatch):
    # 18 solves: n = 3..5, two seeds, genuine, margin and score mode. They
    # take 308 steps in all; the ceiling leaves room for rounding that differs
    # between BLAS builds.
    solutions = _solutions(monkeypatch)
    for n in (3, 4, 5):
        for seed in (100, 101):
            s = _network_state(n, seed)
            for mode in ("genuine", "margin", "score"):
                _search(s, mode)
    assert len(solutions) == 18 and all(sol.converged for sol in solutions)
    assert sum(sol.iterations for sol in solutions) <= 320


def test_genuine_search_memory_stays_small():
    # All 31 cuts of a six-mode state in one program. The Schur complement is
    # gathered from pairs of terms within each matrix block; each cut's linear
    # row, whose terms span the shared witness and the cut's Y, is added as a
    # rank-one term instead, so the pair tables stay small: about 14 MB at
    # peak, against 34 MB with each row's pairs in the tables.
    s = _network_state(6, 23)
    tracemalloc.start()
    try:
        genuine_search(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak / 1e6
