"""Error-aware scoring and the three witness searches."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from cvwitness import sdp
from cvwitness.bounds import WitnessPair, separability_bound
from cvwitness.partitions import Partition, bipartitions, parse_partition
from cvwitness.states import make_state
from cvwitness.witness import (
    MissingErrorModel,
    ZeroSigma,
    _describe_witness,
    condition_E,
    confidence,
    genuine_search,
    measurement_sigma,
    optimize_witness,
    random_rank_one_search,
    rank_one_optimum,
    reports_table,
    reports_to_json,
    violation_score,
)
from test_rank_one_sweep import _network_state


def _psd(gen: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    R = gen.standard_normal((n, n))
    return R @ R.T + floor * np.eye(n)


def test_measurement_sigma_full_double_sum(klev4, genuine_witness):
    w = genuine_witness
    want = np.sqrt(
        np.sum(w.X**2 * klev4.sigma_xx**2) + np.sum(w.P**2 * klev4.sigma_pp**2)
    )
    got = measurement_sigma(w, klev4)
    assert got == pytest.approx(float(want), rel=1e-14)
    assert got == pytest.approx(0.01947, abs=1e-4)


def test_measurement_sigma_needs_model(ppt4, genuine_witness):
    with pytest.raises(MissingErrorModel):
        measurement_sigma(genuine_witness, ppt4)


@pytest.mark.parametrize("n", [3, 5])
def test_measurement_sigma_refuses_a_mode_count_mismatch(klev4, n):
    w = WitnessPair(np.eye(n), np.eye(n))
    with pytest.raises(ValueError, match=f"witness is {n}-mode but state is 4-mode"):
        measurement_sigma(w, klev4)


def test_condition_E_reference_witness(klev4, genuine_witness):
    # The weakest bipartition hits zero at the certified level.
    p = parse_partition("14|23", 4)
    assert condition_E(genuine_witness, klev4, p, 4.43199) == pytest.approx(
        0.0, abs=5e-5
    )
    for q in bipartitions(4):
        assert condition_E(genuine_witness, klev4, q, 0.0) < 0
    with pytest.raises(ValueError):
        condition_E(genuine_witness, klev4, p, -1.0)


def test_condition_E_nonnegative_on_separable_state(vacuum4):
    gen = np.random.default_rng(8)
    for _ in range(20):
        w = WitnessPair(_psd(gen, 4), _psd(gen, 4))
        for p in bipartitions(4):
            assert condition_E(w, vacuum4, p, 0.0) >= -1e-8


def test_confidence_values_and_clamp():
    assert confidence(0.0) == pytest.approx(1.0)
    assert confidence(1.1) == pytest.approx(0.27, abs=0.01)
    assert confidence(3.15) == pytest.approx(1.6e-3, abs=1e-4)
    assert 1e-7 <= confidence(5.0) <= 1e-5
    assert confidence(6.0) <= 1e-8
    xs = [confidence(s) for s in np.linspace(0, 8, 30)]
    assert all(a >= b for a, b in zip(xs, xs[1:]))
    with pytest.warns(UserWarning):
        assert confidence(-0.5) == 1.0


def test_violation_score_fields(klev4, genuine_witness):
    p = parse_partition("14|23", 4)
    r = violation_score(genuine_witness, klev4, p)
    assert r.partition == p
    assert r.G == pytest.approx(1.47484, abs=1e-4)
    assert r.sigma == pytest.approx(0.01947, abs=1e-4)
    assert r.bound == pytest.approx(1.56114, abs=1e-3)
    assert r.s == pytest.approx((r.bound - r.G) / r.sigma, rel=1e-12)
    assert r.confidence == pytest.approx(confidence(r.s), rel=1e-12)
    assert r.converged


def test_violation_score_zero_sigma():
    g = 0.5 * np.eye(2)
    s = make_state(g, g, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ZeroSigma):
        violation_score(WitnessPair(np.eye(2), np.eye(2)), s, Partition.trivial(2))


def test_score_mode_refuses_an_all_zero_error_model(klev4):
    # With every sigma at 0 the score-mode SDP is unbounded; both solver
    # searches must refuse it before solving, not overflow inside it.
    zero = np.zeros((4, 4))
    s = make_state(klev4.gamma_xx, klev4.gamma_pp, zero, zero)
    with pytest.raises(ZeroSigma):
        optimize_witness(s, parse_partition("1|234", 4))
    with pytest.raises(ZeroSigma):
        genuine_search(s)


def test_min_violation_across_bipartitions(klev4, genuine_witness):
    scores = [
        violation_score(genuine_witness, klev4, p).s for p in bipartitions(4)
    ]
    assert min(scores) == pytest.approx(4.43, abs=0.01)
    assert np.argmin(scores) == 6  # weakest is 14|23


def test_random_search_deterministic_and_thread_invariant(klev4):
    draws = dict(trials=3 * 65536 + 17, seed=123)
    p = parse_partition("1|234", 4)
    a = random_rank_one_search(klev4, p, **draws, threads=1)
    b = random_rank_one_search(klev4, p, **draws, threads=4)
    c = random_rank_one_search(klev4, p, **draws)
    assert a.s == b.s == c.s
    assert np.array_equal(a.witness.X, b.witness.X)
    assert np.array_equal(a.witness.P, c.witness.P)


def test_random_search_finds_strong_violations(klev4):
    p = parse_partition("1|234", 4)
    r = random_rank_one_search(klev4, p, trials=131072, seed=7)
    assert r.s is not None and r.s > 6
    # winner is rank one, so the closed form applies to its vectors
    vals = np.linalg.eigvalsh(r.witness.X)
    assert vals[-1] > 0 and abs(vals[0]) < 1e-9 * vals[-1]


def test_random_search_uniform_distribution(klev4):
    # The score depends only on the direction of (h, g), and the trials are
    # isotropic standard normal rows: the search samples witness directions
    # uniformly on the unit sphere of R^2n.
    p = parse_partition("12|34", 4)
    r = random_rank_one_search(klev4, p, trials=65536, seed=7)
    assert r.s is not None and r.s > 3
    Z = np.random.Generator(np.random.Philox(key=[7, 0])).standard_normal((65536, 8))
    z = np.concatenate([r.witness.h, r.witness.g])
    assert (Z == z).all(axis=1).any()  # the winner is one of the draws
    for c in (1.0 / np.linalg.norm(z), 3.0):
        w = WitnessPair.rank_one(c * r.witness.h, c * r.witness.g)
        assert violation_score(w, klev4, p).s == pytest.approx(r.s, rel=1e-12)
    U = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    # Per-coordinate standard errors are about 1.4e-3 (mean), 6e-4 (second
    # moments) and 3e-4 (fourth moment) at this many rows. E[u_i^4] on the
    # sphere is 3/(d(d+2)); normalised cube draws sit about 9e-3 below it.
    assert np.abs(U.mean(axis=0)).max() < 0.01
    assert np.abs(U.T @ U / len(U) - np.eye(8) / 8).max() < 0.005
    assert np.abs((U**4).mean(axis=0) - 3 / 80).max() < 0.003


def test_random_search_margin_mode_cannot_see_ppt_pair(ppt4):
    # Rank-one witnesses never detect the (2,2) entanglement of this state:
    # the best of them has margin 0. The sampler needs an error model.
    p = parse_partition("12|34", 4)
    r = rank_one_optimum(ppt4, p)
    assert r.sigma is None and r.s is None
    assert r.bound - r.G <= 1e-9
    with pytest.raises(MissingErrorModel):
        random_rank_one_search(ppt4, p, trials=65536, seed=0)


def test_search_config_validation(klev4, ppt4, monkeypatch):
    # Each search takes only the inputs it reads, and checks them before
    # any draw or solve.
    p = parse_partition("12|34", 4)
    with pytest.raises(MissingErrorModel):
        optimize_witness(ppt4, p)
    assert optimize_witness(ppt4, p, no_error=True).s is None
    monkeypatch.setattr(np.random, "Philox", None)  # any draw would fail
    for bad in (
        dict(trials=0), dict(trials=70000.0), dict(seed=-1), dict(seed=2**64), dict(seed=1.9),
        dict(threads=1.5),
    ):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            random_rank_one_search(klev4, p, **bad)


@pytest.mark.parametrize("level", [-1.0, float("nan")])
def test_negative_or_nan_level_rejected(klev4, genuine_witness, level):
    with pytest.raises(ValueError, match="s_level"):
        genuine_search(klev4, s_level=level)
    with pytest.raises(ValueError, match="s_level"):
        condition_E(genuine_witness, klev4, parse_partition("1|234", 4), level)


def test_optimize_witness_certifies(klev4):
    p = parse_partition("1|234", 4)
    r = optimize_witness(klev4, p)
    assert r.s is not None and r.s >= 6.0
    assert r.converged
    # normalization held exactly at the reported witness
    G = float(
        np.sum(r.witness.X * klev4.gamma_xx) + np.sum(r.witness.P * klev4.gamma_pp)
    )
    assert G == pytest.approx(1.0, abs=1e-9)
    r2 = optimize_witness(klev4, p)
    assert r2.s == r.s


def test_optimize_witness_margin_mode(ppt4):
    r = optimize_witness(ppt4, parse_partition("12|34", 4), no_error=True)
    assert r.sigma is None and r.s is None
    assert r.bound - r.G > 1e-6  # the convex search does detect it


def test_optimize_witness_margin_mode_zero_trace_state():
    zero = make_state(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="nonpositive G"):
        optimize_witness(zero, parse_partition("1|2", 2), no_error=True)


@pytest.mark.parametrize("low", [-1.0, 0.0])
def test_margin_mode_refuses_a_block_that_is_not_positive_definite(monkeypatch, low):
    # Either gamma block with eigenvalue low: refused before any solve, with
    # no numerical warning on the way.
    monkeypatch.setattr(sdp, "solve", None)  # any solve would fail
    bad, eye, cut = np.diag([low, 1.0]), np.eye(2), parse_partition("1|2", 2)
    for gxx, gpp in ((bad, eye), (eye, bad)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive definite"):
                optimize_witness(make_state(gxx, gpp), cut, no_error=True)


def test_optimize_witness_needs_model_for_positive_level(ppt4):
    with pytest.raises(MissingErrorModel):
        optimize_witness(ppt4, parse_partition("12|34", 4))


def test_genuine_search_from_reference_start(klev4, genuine_witness):
    found, w, reports = genuine_search(klev4, s_level=4.0)
    assert found
    assert len(reports) == 7
    smin = min(r.s for r in reports)
    reference = min(
        violation_score(genuine_witness, klev4, p).s for p in bipartitions(4)
    )
    assert smin >= 10.6 and smin >= reference
    for r in reports:
        assert r.s >= 4.0 - 1e-6
        rechecked = separability_bound(w, r.partition)
        assert rechecked == pytest.approx(r.bound, abs=1e-9)


def test_genuine_search_from_scratch(klev4):
    found, w, reports = genuine_search(klev4, s_level=4.0)
    assert found
    assert all(r.s >= 4.0 - 1e-6 for r in reports)


def test_genuine_search_negative_control(vacuum4):
    found, _, reports = genuine_search(vacuum4, s_level=4.0)
    assert not found
    assert all(r.s <= 1e-6 for r in reports)


def test_genuine_search_needs_three_modes():
    g = 0.5 * np.eye(2)
    s = make_state(g, g, 0.01 * np.ones((2, 2)), 0.01 * np.ones((2, 2)))
    with pytest.raises(ValueError):
        genuine_search(s)


def test_reports_serialization(klev4, genuine_witness):
    reports = [
        violation_score(genuine_witness, klev4, p) for p in bipartitions(4)
    ]
    text = reports_to_json(reports)
    parsed = json.loads(text)
    assert len(parsed) == 7
    assert parsed[0]["partition"] == "1|234"
    assert parsed[6]["s"] == pytest.approx(4.43, abs=0.01)
    assert np.array(parsed[0]["witness"]["X"]).shape == (4, 4)
    table = reports_table(reports)
    assert "14|23" in table
    assert "matrix(4x4)" in table
    h = np.array([1.0, 0.0, 0.5, 0.0])
    g = np.array([0.5, 1.0, 0.0, 0.0])
    rank_one = violation_score(
        WitnessPair(np.outer(h, h), np.outer(g, g)), klev4, bipartitions(4)[0]
    )
    assert "h=(" in reports_table([rank_one])


@pytest.mark.parametrize("a, b", [(0.56, 0.41), (1.0, 0.3), (0.7, 0.2)])
def test_rank_one_vectors_print_one_sign_when_entries_tie(a, b):
    # (a, -a, b, b): the first two entries tie in magnitude, so a 1-ulp change
    # in either must not decide which one prints positive, nor a change of
    # 1e-4 relative: the solver returns such ties (ppt4's single-mode cuts)
    # up to 5.6e-5 apart. Vectors and matrices alike.
    texts = set()
    for i in (0, 1):
        for move in (np.inf, -np.inf, 1 + 1e-4, 1 - 1e-4):
            h = np.array([a, -a, b, b])
            h[i] = h[i] * move if np.isfinite(move) else np.nextafter(h[i], move)
            texts.add(_describe_witness(WitnessPair(np.outer(h, h), np.outer(h, h))))
            texts.add(_describe_witness(WitnessPair.rank_one(h, -h)))
    v = f"({a:.2f}, {-a:.2f}, {b:.2f}, {b:.2f})"
    assert texts == {f"h={v} g={v}"}


def _raise_second_eigenvalue(M: np.ndarray, by: float) -> np.ndarray:
    # M plus by * lambda_1 along the eigenvector of its second eigenvalue:
    # the PSD change that moves a rank-one test the most.
    vals, vecs = np.linalg.eigh(M)
    return M + by * vals[-1] * np.outer(vecs[:, -2], vecs[:, -2])


def test_witness_column_ignores_solver_rounding(ppt4, klev4, vacuum4):
    # Solver witnesses that are rank one come out with lambda_2 / lambda_1
    # up to about 1e-7, full-rank ones at 1e-4 and above, so raising
    # lambda_2 by 1e-9 lambda_1 changes no row of the witness column. The
    # corpus: margin mode on the built-ins, and margin, score and genuine
    # mode on seeded states of three to six modes (score mode on one
    # six-mode seed, which alone takes a second).
    witnesses = []
    for s in (ppt4, klev4, vacuum4):
        witnesses += [r.witness for r in optimize_witness(s, bipartitions(4), no_error=True)]
    for n in (3, 4, 5, 6):
        for seed in range(6):
            s, parts = _network_state(n, seed), bipartitions(n)
            witnesses += [r.witness for r in optimize_witness(s, parts, no_error=True)]
            if n < 6 or seed == 0:
                witnesses += [r.witness for r in optimize_witness(s, parts)]
            witnesses.append(genuine_search(s)[1])
    assert len(witnesses) == 562
    for w in witnesses:
        moved = WitnessPair(*(_raise_second_eigenvalue(M, 1e-9) for M in (w.X, w.P)))
        assert _describe_witness(moved) == _describe_witness(w)
    # ppt4's single-mode cuts have rank-one optima, its two-vs-two cuts not.
    columns = [_describe_witness(w) for w in witnesses[:7]]
    assert [c.startswith("h=(") for c in columns] == [True] * 4 + [False] * 3
    assert columns[4:] == ["matrix(4x4)"] * 3


def test_table_partition_column_fits_ten_mode_labels(klev4):
    # "1|2,3,4,5,6,7,8,9,10" is 20 characters: the partition column widens
    # to it, so every row keeps its columns under the header. Tables whose
    # labels fit keep the 12-character column.
    g, sigma = 0.5 * np.eye(10), np.full((10, 10), 0.01)
    state = make_state(g, g, sigma, sigma)
    gen = np.random.default_rng(2)
    parts = bipartitions(10)[:12] + [parse_partition("1,2,3,4,5|6,7,8,9,10", 10)]
    reports = [
        violation_score(WitnessPair.rank_one(*gen.standard_normal((2, 10))), state, p)
        for p in parts
    ]
    header, rule, *rows = reports_table(reports).splitlines()
    assert header.startswith("partition" + " " * 12 + " ")
    assert len(rule) == len(header)
    assert {row.index("  h=(") for row in rows} == {header.index("  witness")}
    for row, r in zip(rows, reports):
        assert row.split()[:2] == [r.partition.text, f"{r.G:.5f}"]
    w = WitnessPair.rank_one(np.ones(4), np.ones(4))
    four = reports_table([violation_score(w, klev4, p) for p in bipartitions(4)])
    assert four.splitlines()[0] == (
        "partition             G      sigma      bound          s  confidence  witness"
    )
    assert four.splitlines()[2].startswith("1|234        ")
