"""One random rank-one sweep scoring many partitions at once.

The oracle below regenerates the documented trial streams (65536-trial
batches, Philox keyed by (seed, batch)) and scores every trial in plain
numpy, sharing no code with the search beyond the public entry point.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness import (
    SearchConfig,
    ZeroSigma,
    bipartitions,
    make_state,
    parse_partition,
    random_rank_one_search,
)

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


@pytest.mark.parametrize(
    "name, distribution, no_error",
    [
        ("klev4", "normal", False),
        ("klev4", "uniform", False),
        ("ppt4", "normal", True),
    ],
)
def test_sweep_equals_per_partition_calls(request, name, distribution, no_error):
    state = request.getfixturevalue(name)
    parts = _parts()
    cfg = SearchConfig(trials=3 * BATCH + 17, seed=41, distribution=distribution)
    singles = [
        random_rank_one_search(state, p, cfg, threads=1, no_error=no_error)
        for p in parts
    ]
    for threads in (1, 2):
        swept = random_rank_one_search(
            state, parts, cfg, threads=threads, no_error=no_error
        )
        assert len(swept) == len(parts)
        for a, b in zip(swept, singles):
            _assert_same(a, b)


def _oracle_winners(state, parts, seed: int, trials: int, distribution: str):
    n = state.n
    draws = []
    for b in range((trials + BATCH - 1) // BATCH):
        gen = np.random.Generator(np.random.Philox(key=[seed, b]))
        size = min(BATCH, trials - b * BATCH)
        if distribution == "normal":
            draws.append(gen.standard_normal((size, 2 * n)))
        else:
            draws.append(gen.uniform(-1.0, 1.0, (size, 2 * n)))
    Z = np.vstack(draws)
    H, G = Z[:, :n], Z[:, n:]
    gval = ((H @ state.gamma_xx) * H).sum(axis=1) + ((G @ state.gamma_pp) * G).sum(
        axis=1
    )
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
        score = (bound - gval) / np.sqrt(var)
        k = int(np.argmax(score))  # first maximum: lowest trial index
        winners.append((H[k], G[k], score[k]))
    return winners


@pytest.mark.parametrize("distribution", ["normal", "uniform"])
def test_sweep_matches_plain_numpy_oracle(klev4, distribution):
    parts = _parts()
    seed, trials = 58, 2 * BATCH + 5
    cfg = SearchConfig(trials=trials, seed=seed, distribution=distribution)
    reports = random_rank_one_search(klev4, parts, cfg, threads=2)
    winners = _oracle_winners(klev4, parts, seed, trials, distribution)
    for r, (h, g, score) in zip(reports, winners):
        assert np.array_equal(r.witness.X, np.outer(h, h)), r.partition.text
        assert np.array_equal(r.witness.P, np.outer(g, g)), r.partition.text
        assert r.s == pytest.approx(score, rel=1e-9)


def test_sweep_empty_list_and_bad_input(klev4, monkeypatch):
    cfg = SearchConfig(trials=100)
    with monkeypatch.context() as m:
        m.setattr(np.random, "Philox", None)  # any draw would fail
        assert random_rank_one_search(klev4, [], cfg) == []
    mixed = [parse_partition("1|234", 4), parse_partition("1|23", 3)]
    with pytest.raises(ValueError):
        random_rank_one_search(klev4, mixed, cfg)
    with pytest.raises(ValueError):
        random_rank_one_search(klev4, bipartitions(4), cfg, threads=0)
    g = 0.5 * np.eye(4)
    exact = make_state(g, g, np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ZeroSigma):
        random_rank_one_search(exact, bipartitions(4), cfg)
