"""One random rank-one sweep scoring many partitions at once.

The oracle below regenerates the documented trial streams (65536-trial
batches, Philox keyed by (seed, batch)) and scores every trial in plain
numpy, sharing no code with the search beyond the public entry point. The
search itself scores a partition only on the trials that its per-trial
bound cannot rule out, so agreement with the oracle checks the pruning.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from cvwitness import (
    Partition,
    ZeroSigma,
    bipartitions,
    make_state,
    parse_partition,
    random_rank_one_search,
    rank_one_bound,
)
from cvwitness import witness

BATCH = 65536


def _parts() -> list:
    extra = [parse_partition(t, 4) for t in ("1|2|34", "12|3|4")]
    return bipartitions(4) + extra


def _assert_same(a, b) -> None:
    assert a.partition == b.partition
    assert (a.G, a.sigma, a.bound, a.s, a.confidence) == (
        b.G,
        b.sigma,
        b.bound,
        b.s,
        b.confidence,
    )
    assert np.array_equal(a.witness.X, b.witness.X)
    assert np.array_equal(a.witness.P, b.witness.P)
    assert a.certificate.value == b.certificate.value
    assert np.array_equal(a.certificate.certificate_X, b.certificate.certificate_X)
    assert np.array_equal(a.certificate.certificate_P, b.certificate.certificate_P)


# Every draw is standard normal, named "normal" in the test ids.
NORMAL = ["False-normal", "True-normal"]


@pytest.mark.parametrize(
    "name, no_error",
    [
        pytest.param("klev4", False, id="klev4-normal-False"),
        pytest.param("ppt4", True, id="ppt4-normal-True"),
    ],
)
def test_sweep_equals_per_partition_calls(request, name, no_error):
    state = request.getfixturevalue(name)
    parts = _parts()
    draws = dict(trials=3 * BATCH + 17, seed=41)
    singles = [
        random_rank_one_search(state, p, **draws, threads=1, no_error=no_error)
        for p in parts
    ]
    for threads in (1, 2):
        swept = random_rank_one_search(
            state, parts, **draws, threads=threads, no_error=no_error
        )
        assert len(swept) == len(parts)
        for a, b in zip(swept, singles):
            _assert_same(a, b)


def _oracle_winners(state, parts, seed: int, trials: int, no_error: bool = False):
    n = state.n
    draws = []
    for b in range((trials + BATCH - 1) // BATCH):
        gen = np.random.Generator(np.random.Philox(key=[seed, b]))
        size = min(BATCH, trials - b * BATCH)
        draws.append(gen.standard_normal((size, 2 * n)))
    Z = np.vstack(draws)
    H, G = Z[:, :n], Z[:, n:]
    gval = ((H @ state.gamma_xx) * H).sum(axis=1) + ((G @ state.gamma_pp) * G).sum(
        axis=1
    )
    if not no_error:
        H2, G2 = H**2, G**2
        var = ((H2 @ state.sigma_xx**2) * H2).sum(axis=1) + (
            (G2 @ state.sigma_pp**2) * G2
        ).sum(axis=1)
    winners = []
    for p in parts:
        bound = np.zeros(len(Z))
        for block in p.blocks:
            cols = [i - 1 for i in block]
            bound += np.abs((H[:, cols] * G[:, cols]).sum(axis=1))
        score = bound - gval if no_error else (bound - gval) / np.sqrt(var)
        k = int(np.argmax(score))  # first maximum: lowest trial index
        winners.append((H[k], G[k], score[k]))
    return winners


@pytest.mark.parametrize("seed", [pytest.param(58, id="normal")])
def test_sweep_matches_plain_numpy_oracle(klev4, seed):
    parts = _parts()
    trials = 2 * BATCH + 5
    reports = random_rank_one_search(klev4, parts, trials=trials, seed=seed, threads=2)
    winners = _oracle_winners(klev4, parts, seed, trials)
    for r, (h, g, score) in zip(reports, winners):
        assert np.array_equal(r.witness.X, np.outer(h, h)), r.partition.text
        assert np.array_equal(r.witness.P, np.outer(g, g)), r.partition.text
        assert r.s == pytest.approx(score, rel=1e-9)


def test_sweep_empty_list_and_bad_input(klev4, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(np.random, "Philox", None)  # any draw would fail
        assert random_rank_one_search(klev4, [], trials=100) == []
    mixed = [parse_partition("1|234", 4), parse_partition("1|23", 3)]
    with pytest.raises(ValueError):
        random_rank_one_search(klev4, mixed, trials=100)
    with pytest.raises(ValueError):
        random_rank_one_search(klev4, bipartitions(4), trials=100, threads=0)
    g = 0.5 * np.eye(4)
    exact = make_state(g, g, np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ZeroSigma):
        random_rank_one_search(exact, bipartitions(4), trials=100)


def test_all_zero_error_model_is_refused_before_any_draw(klev4, monkeypatch):
    # With every sigma entry at 0 every trial's sigma is 0, so the sweep must
    # refuse the state up front instead of drawing its 10^6 trials first.
    zero = np.zeros((4, 4))
    exact = make_state(klev4.gamma_xx, klev4.gamma_pp, zero, zero)
    monkeypatch.setattr(np.random, "Philox", None)  # any draw would fail
    with pytest.raises(ZeroSigma):
        random_rank_one_search(exact, bipartitions(4))
    with pytest.raises(ZeroSigma):
        random_rank_one_search(exact, parse_partition("1|234", 4))


def _network_state(n: int, seed: int):
    # Squeezed vacua through a random orthogonal network plus thermal noise,
    # with an error model proportional to the entries.
    gen = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    r = gen.uniform(0.3, 0.9, n) * np.resize([1.0, -1.0], n)
    gxx = (Q * np.exp(-2 * r) / 2) @ Q.T + 0.02 * np.eye(n)
    gpp = (Q * np.exp(2 * r) / 2) @ Q.T + 0.02 * np.eye(n)
    gxx, gpp = (gxx + gxx.T) / 2, (gpp + gpp.T) / 2
    sig = 0.002 + 0.01 * np.abs(gxx), 0.002 + 0.01 * np.abs(gpp)
    return make_state(gxx, gpp, *sig)


def _six_mode_state():
    return _network_state(6, 23)


@pytest.mark.parametrize("trials", [17, 64, 3 * BATCH + 17])
@pytest.mark.parametrize("no_error", [False, True], ids=NORMAL)
def test_pruned_sweep_matches_oracle_on_six_modes(trials, no_error):
    # Fewer trials than the probe, exactly the probe, and a partial last
    # batch; the finest partition's score is the trial bound up to its slack.
    state = _six_mode_state()
    parts = bipartitions(6) + [
        Partition.singletons(6),
        parse_partition("12|34|56", 6),
    ]
    seed = 77
    winners = _oracle_winners(state, parts, seed, trials, no_error)
    for threads in (1, 2):
        reports = random_rank_one_search(
            state, parts, trials=trials, seed=seed, threads=threads, no_error=no_error
        )
        for r, (h, g, score) in zip(reports, winners):
            assert np.array_equal(r.witness.X, np.outer(h, h)), r.partition.text
            assert np.array_equal(r.witness.P, np.outer(g, g)), r.partition.text
            # Reports are rescored through separability_bound, whose error
            # scales with G and B_I, not with their difference.
            got = r.bound - r.G if no_error else r.s
            tol = 1e-9 * (r.G + r.bound) / (1.0 if no_error else r.sigma)
            assert got == pytest.approx(score, abs=tol), r.partition.text


def _tile_edge_case(request, name: str):
    if name == "klev4":
        return request.getfixturevalue("klev4"), _parts()
    if name == "one-mode":
        one = make_state(*(np.array([[v]]) for v in (0.3, 1.2, 0.01, 0.02)))
        return one, [Partition.trivial(1)]
    cuts = [
        "1,2,3,4,5,6|7,8,9,10,11,12",
        "1,3,5,7,9,11|2,4,6,8,10,12",
        "1,2|3,4,5|6,7,8,9,10,11,12",
    ]
    parts = [Partition.singletons(12), Partition.trivial(12)]
    return _network_state(12, 31), parts + [parse_partition(t, 12) for t in cuts]


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, BATCH + 4097])
@pytest.mark.parametrize("name", ["one-mode", "klev4", "twelve"])
@pytest.mark.parametrize("no_error", [False, True], ids=NORMAL)
def test_winners_match_oracle_at_tile_edges(request, trials, name, no_error):
    # One trial, one short of a 4096-trial tile, one tile exactly, one past
    # it, and a second batch that ends one past a tile.
    state, parts = _tile_edge_case(request, name)
    seed = 1009
    winners = _oracle_winners(state, parts, seed, trials, no_error)
    for threads in (1, 2):
        reports = random_rank_one_search(
            state, parts, trials=trials, seed=seed, threads=threads, no_error=no_error
        )
        for r, (h, g, _) in zip(reports, winners):
            assert np.array_equal(r.witness.X, np.outer(h, h)), r.partition.text
            assert np.array_equal(r.witness.P, np.outer(g, g)), r.partition.text


def test_batch_memory_stays_near_one_draw(klev4):
    # One 65536-trial batch draws 65536 x 2n doubles; the rest of the batch
    # (G, sigma, bounds and the scored candidates) must stay well below that.
    draw = BATCH * 8 * 8
    tracemalloc.start()
    try:
        random_rank_one_search(klev4, bipartitions(4), trials=BATCH, seed=13, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * draw, peak / draw


@pytest.mark.parametrize("n", range(1, 13))
def test_quad_matches_plain_double_loop(n):
    gen = np.random.default_rng(100 + n)
    M = gen.standard_normal((n, n))
    A = M @ M.T + np.eye(n)
    V = gen.standard_normal((n, 37))
    got = witness._quad(V, A)
    assert got.shape == (37,)
    for t in range(V.shape[1]):
        want = 0.0
        for i in range(n):
            for j in range(n):
                want += A[i, j] * V[i, t] * V[j, t]
        assert got[t] == pytest.approx(want, rel=1e-12), (n, t)


def test_trial_bound_dominates_every_partition_score():
    # Products h_i g_i spread over 1e-8..1e8 make the summation order
    # matter; the stored bound must still be at least each computed score.
    gen = np.random.default_rng(12)
    rows, n = 10**5, 12
    H, G = (
        gen.choice([-1.0, 1.0], (rows, n)) * 10 ** gen.uniform(-4, 4, (rows, n))
        for _ in range(2)
    )
    parts = [Partition.singletons(n), Partition.trivial(n)]
    for k in range(2, n):
        labels = gen.integers(0, k, n)
        blocks = [np.flatnonzero(labels == b) + 1 for b in set(labels)]
        parts.append(Partition.of(blocks, n))
    upper = witness._trial_bound(H, G)
    total = np.abs(H * G).sum(axis=1)
    gval = total * gen.uniform(0.0, 2.0, rows)
    scale = total * gen.uniform(0.1, 10.0, rows)
    for q in parts:
        bound = rank_one_bound(H, G, q)
        assert np.all(upper >= bound), q.text
        assert np.all((upper - gval) / scale >= (bound - gval) / scale), q.text


def test_stacked_rank_one_bound_adds_left_to_right():
    # Row stacks of any height, single vectors and a plain loop agree bit
    # for bit, also on blocks of eight or more modes, where numpy's own
    # sums switch to pairwise order.
    gen = np.random.default_rng(3)
    n = 12
    H, G = gen.standard_normal((2, 40, n)) * 10 ** gen.uniform(-4, 4, (2, 40, n))
    parts = [
        Partition.trivial(n),
        Partition.singletons(n),
        parse_partition("1,2,3,4,5,6,7,8,9|10,11,12", n),
    ]
    for q in parts:
        for rows in (slice(0, 1), slice(0, 2), slice(None)):
            got = rank_one_bound(H[rows], G[rows], q)
            for h, g, value in zip(H[rows], G[rows], got):
                prod = [float(a * b) for a, b in zip(h, g)]
                want = sum(abs(sum(prod[i - 1] for i in b)) for b in q.blocks)
                assert value == want == rank_one_bound(h, g, q), q.text


def test_pool_never_outnumbers_cpus_or_batches(klev4, monkeypatch):
    started = []

    class Pool(witness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(witness, "ThreadPoolExecutor", Pool)
    if hasattr(witness.os, "sched_getaffinity"):
        monkeypatch.setattr(witness.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(witness.os, "cpu_count", lambda: 64)
        assert witness._resolve_threads(None) == 1
    p = parse_partition("1|234", 4)
    one = random_rank_one_search(klev4, p, trials=BATCH, threads=2)
    assert started == []
    two = random_rank_one_search(klev4, p, trials=BATCH + 1, threads=8)
    assert started == [2]
    _assert_same(one, random_rank_one_search(klev4, p, trials=BATCH))
    assert two.s >= one.s


def _pair_and_vacua():
    # Modes 1, 2: a two-mode squeezed state (r = 0.6); modes 3, 4: vacuum.
    # Cuts that split 1 from 2 are entangled, so some trial scores above 0;
    # 12|34, 3|124 and 4|123 are separable, so every score is below 0.
    c, s = np.cosh(1.2) / 2, np.sinh(1.2) / 2
    gxx, gpp = 0.5 * np.eye(4), 0.5 * np.eye(4)
    gxx[:2, :2] = [[c, s], [s, c]]
    gpp[:2, :2] = [[c, -s], [-s, c]]
    sigma = np.full((4, 4), 0.01)
    return make_state(gxx, gpp, sigma, sigma)


@pytest.mark.parametrize("name", ["pair-vacua", "vacuum4", "ppt4"])
def test_both_sweep_branches_match_oracle(request, name):
    # A partition with a positive score is won among the trials of positive
    # trial-bound margin; every other one falls back to the probe scan.
    # Both must give the oracle's winner, bit for bit, on any thread count.
    if name == "pair-vacua":
        state = _pair_and_vacua()
    else:
        state = request.getfixturevalue(name)
    no_error = name == "ppt4"
    parts = bipartitions(4)
    seed, trials = 5, 2 * BATCH + 17
    winners = _oracle_winners(state, parts, seed, trials, no_error)
    positive = {p.text for p, (_, _, score) in zip(parts, winners) if score > 0}
    if name == "pair-vacua":
        assert positive == {"1|234", "2|134", "13|24", "14|23"}
    elif name == "vacuum4":
        assert positive == set()
    else:
        assert 0 < len(positive) < len(parts)
    for threads in (1, 2):
        reports = random_rank_one_search(
            state, parts, trials=trials, seed=seed, threads=threads, no_error=no_error
        )
        for r, (h, g, _) in zip(reports, winners):
            assert np.array_equal(r.witness.h, h), r.partition.text
            assert np.array_equal(r.witness.g, g), r.partition.text
            assert np.array_equal(r.witness.X, np.outer(h, h)), r.partition.text


def test_rank_one_reports_make_no_eigendecomposition(monkeypatch):
    # One batch over all 511 ten-mode bipartitions, then its table: each
    # winner is a rank-one pair, whose bound, PSD check and description
    # need no eigendecomposition.
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    state = _network_state(10, 5)
    reports = random_rank_one_search(
        state, bipartitions(10), trials=BATCH, seed=3, threads=1
    )
    table = witness.reports_table(reports)
    assert len(reports) == 511 and "h=(" in table
    assert calls == []


@pytest.mark.parametrize("name", ["vacuum4", "six-mode"])
def test_new_paths_stay_near_one_draw(request, name):
    # The bound of test_batch_memory_stays_near_one_draw on the fallback
    # (vacuum4, where no partition has a positive score) and on the 31
    # bipartitions of six modes, won among the positive-margin trials.
    if name == "vacuum4":
        state, parts = request.getfixturevalue("vacuum4"), bipartitions(4)
    else:
        state, parts = _six_mode_state(), bipartitions(6)
    draw = BATCH * 2 * state.n * 8
    tracemalloc.start()
    try:
        random_rank_one_search(state, parts, trials=BATCH, seed=13, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * draw, peak / draw
