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
from cvwitness.bounds import WitnessPair, lmi_separability_test, rank_one_bound
from cvwitness.cli import _certified, main
from cvwitness.partitions import Partition, PartitionError, bipartitions, parse_partition
from cvwitness.states import make_state, save_state
from cvwitness.witness import (
    _werner_wolf,
    genuine_search,
    optimize_witness,
    random_rank_one_search,
    rank_one_optimum,
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


def test_physicality_is_worked_out_once_per_state(monkeypatch, capsys):
    # _certified reads the state's physicality: over ppt4's fourteen margin
    # reports that is one spectrum. check computes one for ppt4 and one for
    # each of its seven partial transposes.
    from cvwitness import builtin_state, states

    ppt4 = builtin_state("ppt4")
    cuts = bipartitions(4)
    reports = optimize_witness(ppt4, cuts, no_error=True) + rank_one_optimum(ppt4, cuts)
    spectra, spectrum = [], states._spectrum
    monkeypatch.setattr(states, "_spectrum", lambda *a: spectra.append(a) or spectrum(*a))
    fresh = builtin_state("ppt4")
    assert sum(_certified(r, fresh, 0.0) for r in reports) == 9 and len(reports) == 14
    assert len(spectra) == 1
    spectra.clear()
    assert main(["check", "--state", "ppt4"]) == 1
    assert len(spectra) == 8
    capsys.readouterr()


def test_certification_threshold(ppt4):
    r = optimize_witness(ppt4, parse_partition("12|34", 4), no_error=True)
    bound = rounding_bound(r.witness, ppt4)
    assert 0 < bound < 1e-10
    for gap in (0.0, 1e-9):
        for factor, want in ((10.0, True), (0.1, False)):
            forged = replace(r, bound=r.G + gap + factor * bound, gap=gap)
            assert _certified(forged, ppt4, 0.0) is want


def _lmi_corpus(ppt4, klev4) -> list:
    # ppt4, klev4, 200 random states, and shifted copies near the threshold.
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
    return states


def test_margin_mode_certifies_every_lmi_flagged_cut(ppt4, klev4):
    flagged_cuts = 0
    for s in _lmi_corpus(ppt4, klev4):
        flagged = [p for p in bipartitions(s.n) if lmi_separability_test(s, p)[1] < -1e-6]
        for r in optimize_witness(s, flagged, no_error=True):
            assert _certified(r, s, 0.0), (r.partition.text, r.bound - r.G, r.gap)
        flagged_cuts += len(flagged)
    assert flagged_cuts > 500


def _worst_sign_pattern(s, p: Partition) -> float:
    # -lambda_min of [[gxx, E/2], [E/2, gpp]], maximized over the diagonal
    # sign matrices E constant on blocks, enumerated here in plain numpy.
    worst = -np.inf
    for bits in range(2 ** (p.k - 1)):
        signs = np.array([1.0] + [-1.0 if bits >> b & 1 else 1.0 for b in range(p.k - 1)])
        E = np.diag(signs[p.labels]) / 2
        M = np.block([[s.gamma_xx, E], [E, s.gamma_pp]])
        worst = max(worst, -np.linalg.eigvalsh(M)[0])
    return worst


def test_rank_one_optimum_is_the_worst_sign_pattern(ppt4, klev4):
    # The best unit rank-one margin is -lambda_min of the worst pattern, and
    # no seeded draw beats it per unit norm ||h||^2 + ||g||^2 on ppt4, the
    # five-mode state and every 25th state of the corpus.
    states = [_network_state(5, 1)] + _lmi_corpus(ppt4, klev4)
    gen = np.random.default_rng(24)
    for i, s in enumerate(states):
        parts = bipartitions(s.n)
        reports = rank_one_optimum(s, parts)
        for r in reports:
            h, g = r.witness.h, r.witness.g
            assert r.sigma is None and r.s is None
            assert h @ h + g @ g == pytest.approx(1.0, rel=1e-12)
            margin, scale = r.bound - r.G, r.bound + r.G
            want = _worst_sign_pattern(s, r.partition)
            assert margin == pytest.approx(want, abs=1e-12 * scale), r.partition.text
        if i > 1 and i % 25:
            continue
        H, Gv = gen.standard_normal((2, 65536, s.n))
        G = ((H @ s.gamma_xx) * H).sum(axis=1) + ((Gv @ s.gamma_pp) * Gv).sum(axis=1)
        norm = (H**2).sum(axis=1) + (Gv**2).sum(axis=1)
        drawn = (rank_one_bound(H, Gv, parts) - G) / norm
        for r, best in zip(reports, drawn.max(axis=1)):
            assert best <= r.bound - r.G + 1e-12 * (r.bound + r.G), r.partition.text
    certified = [r.partition.text for r in rank_one_optimum(ppt4, bipartitions(4))
                 if _certified(r, ppt4, 0.0)]
    assert certified == ["1|234", "2|134", "3|124", "4|123"]
    five = _network_state(5, 1)
    assert all(_certified(r, five, 0.0) for r in rank_one_optimum(five, bipartitions(5)))
    g = 0.5 * np.eye(13)
    with pytest.raises(PartitionError, match="got 13"):
        rank_one_optimum(make_state(g, g), Partition.singletons(13))


def test_check_exit_code_follows_its_json(capsys, tmp_path, ppt4, klev4):
    # check certifies exactly when the state is physical and some cut has an
    # LMI violation or an unphysical partial transpose, as its --json says.
    dest, path = tmp_path / "check.json", tmp_path / "state.json"
    sources = ["ppt4", "klev4", "vacuum4"]
    for s in _lmi_corpus(ppt4, klev4)[2:]:
        save_state(s, path)
        sources.append(str(path))
    codes = []
    for source in sources:
        code = main(["check", "--state", str(source), "--json", str(dest)])
        capsys.readouterr()
        doc = json.loads(dest.read_text())
        flagged = any(
            row["lmi_violated"] or not all(t["physical"] for t in row["partial_transposes"])
            for row in doc["partitions"]
        )
        assert code == int(doc["physical"] and flagged), source
        codes.append(code)
    assert codes[:3] == [1, 0, 0] and 0 < sum(codes) < len(codes)


def _separable_state(gen: np.random.Generator, n: int):
    # A random cut with a pure block on each side (gamma_pp = gamma_xx^-1 / 4)
    # plus PSD noise: separable across that cut, and so t* >= 1 there.
    modes = gen.permutation(n) + 1
    ends = np.sort(gen.choice(np.arange(1, n), gen.integers(1, n), replace=False))
    cut = Partition.of(np.split(modes, ends), n)
    gxx, gpp = np.zeros((2, n, n))
    for idx in cut.indices:
        R = gen.standard_normal((idx.size, idx.size))
        A = R @ R.T + 0.2 * np.eye(idx.size)
        gxx[np.ix_(idx, idx)], gpp[np.ix_(idx, idx)] = A, np.linalg.inv(A) / 4
    for g in (gxx, gpp):
        R = gen.standard_normal((n, n))
        g += gen.uniform(0.01, 0.1) * R @ R.T
    return make_state((gxx + gxx.T) / 2, (gpp + gpp.T) / 2), cut


def _feasible_t(s, cut: Partition, primal) -> float:
    # The margin-mode primal (t, a_b, c_b) checked by Cholesky factors of our
    # own, which fail unless each matrix is positive definite: gamma_xx -
    # (+)a_b, gamma_pp - (+)c_b and every [[a_b, (t/2) I], [(t/2) I, c_b]].
    t, a, c = primal
    for g, blocks in ((s.gamma_xx, a), (s.gamma_pp, c)):
        direct = np.zeros((s.n, s.n))
        for idx, m in zip(cut.indices, blocks):
            direct[np.ix_(idx, idx)] = m
        np.linalg.cholesky(g - direct)
    for ab, cb in zip(a, c):
        half = t / 2 * np.eye(len(ab))
        np.linalg.cholesky(np.block([[ab, half], [half, cb]]))
    return t


def test_margin_mode_primal_is_a_separable_decomposition(vacuum4):
    # A feasible (t, a_b, c_b) shows gamma / t is separable across the cut,
    # so t <= t*. Separable states have t* >= 1; vacuum4 scaled by 1.01 has
    # t* = 1.01 on every cut, since r gamma is physical only for r >= 1/1.01.
    gen = np.random.default_rng(16)
    low = np.inf
    for i in range(200):
        s, cut = _separable_state(gen, 2 + i % 4)
        ((_, _, ok, primal),) = _werner_wolf(s, [cut])
        low = min(low, _feasible_t(s, cut, primal))
        assert ok
    assert low >= 1 - 1e-7
    scaled = make_state(1.01 * vacuum4.gamma_xx, 1.01 * vacuum4.gamma_pp)
    cuts = bipartitions(4)
    for cut, (_, _, ok, primal) in zip(cuts, _werner_wolf(scaled, cuts)):
        assert ok and _feasible_t(scaled, cut, primal) == pytest.approx(1.01, abs=1e-8)


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
    # Any witness is a feasible point, so no rank-one witness may beat the
    # optimum: per cut, the best draw by score and the best rank-one witness
    # by margin, and for the lowest level over all bipartitions in the
    # genuine search. Scores count only when positive:
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
        best_rank_one = rank_one_optimum(s, parts)
        for r, q in zip(optimize_witness(s, parts, no_error=True), best_rank_one):
            # The rank-one optimum is a unit witness: compare margins at G = 1.
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
    [("ppt4", "margin", 9), ("klev4", "genuine", 17), ("vacuum4", "genuine", 7)],
)
def test_iteration_budgets(request, monkeypatch, name, mode, budget):
    # Interior-point steps of the one solve behind each search.
    solutions = _solutions(monkeypatch)
    _search(request.getfixturevalue(name), mode)
    (sol,) = solutions
    assert sol.converged and sol.iterations <= budget


def test_seeded_corpus_iteration_ceiling(monkeypatch):
    # 18 solves: n = 3..5, two seeds, genuine, margin and score mode. They
    # take 291 steps in all, 70 of them in margin mode; the ceiling leaves
    # room for rounding that differs between BLAS builds.
    solutions = _solutions(monkeypatch)
    for n in (3, 4, 5):
        for seed in (100, 101):
            s = _network_state(n, seed)
            for mode in ("genuine", "margin", "score"):
                _search(s, mode)
    assert len(solutions) == 18 and all(sol.converged for sol in solutions)
    assert sum(sol.iterations for sol in solutions) <= 303


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
