"""Separability bounds, certificates, LMI test, symmetric-witness table."""
from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from cvwitness.bounds import (
    WitnessPair,
    _block_certificate,
    analytic_biseparable_bound,
    evaluate_G,
    lmi_separability_test,
    rank_one_bound,
    separability_bound,
    symmetric_witness,
    table1_bounds,
)
from cvwitness.linalg import PSD_TOL, NotPSD, quantum_bound
from cvwitness.partitions import (
    Partition,
    all_partitions,
    free_mask,
    is_finer,
    parse_partition,
)
from cvwitness.states import make_state
from test_rank_one_sweep import _network_state


def _psd(gen: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    R = gen.standard_normal((n, n))
    return R @ R.T + floor * np.eye(n)


def _witness(gen: np.random.Generator, n: int, floor: float = 0.0) -> WitnessPair:
    return WitnessPair(_psd(gen, n, floor), _psd(gen, n, floor))


def test_witness_pair_validation():
    with pytest.raises(NotPSD):
        WitnessPair(np.diag([1.0, -0.1]), np.eye(2))
    with pytest.raises(NotPSD):
        WitnessPair(np.eye(2), np.diag([-0.1, 1.0]))
    with pytest.raises(ValueError):
        WitnessPair(np.eye(2), np.eye(3))
    w = WitnessPair(np.diag([1.0, 0.0]), np.eye(2))  # boundary is allowed
    assert w.n == 2


def test_evaluate_G_oracle():
    w = WitnessPair(np.array([[2.0, 1.0], [1.0, 3.0]]), np.eye(2))
    s = make_state(np.array([[1.0, 0.5], [0.5, 2.0]]), 0.5 * np.eye(2))
    want = float(np.trace(w.X @ s.gamma_xx) + np.trace(w.P @ s.gamma_pp))
    assert evaluate_G(w, s) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        evaluate_G(w, make_state(0.5 * np.eye(3), 0.5 * np.eye(3)))


def test_trivial_partition_is_quantum_bound():
    gen = np.random.default_rng(1)
    for _ in range(10):
        n = int(gen.integers(2, 6))
        w = _witness(gen, n)
        value = separability_bound(w, Partition.trivial(n))
        assert type(value) is float
        assert value == pytest.approx(quantum_bound(w.X, w.P), abs=1e-12)
        assert np.array_equal(_block_certificate(w, Partition.trivial(n))[0], w.X)


def test_partition_bound_dominates_quantum_bound():
    gen = np.random.default_rng(2)
    for _ in range(15):
        n = int(gen.integers(2, 5))
        w = _witness(gen, n)
        B = quantum_bound(w.X, w.P)
        for p in all_partitions(n):
            assert separability_bound(w, p) >= B - 1e-8


def test_refinement_monotonicity():
    gen = np.random.default_rng(3)
    done = 0
    while done < 40:
        n = int(gen.integers(2, 6))
        parts = all_partitions(n)
        a = parts[int(gen.integers(len(parts)))]
        b = parts[int(gen.integers(len(parts)))]
        if not is_finer(a, b) or a == b:
            continue
        w = _witness(gen, n)
        va = separability_bound(w, a)
        vb = separability_bound(w, b)
        assert va >= vb - 1e-7
        done += 1


def test_certificate_reproduces_value_and_preserves_entries():
    gen = np.random.default_rng(4)
    for _ in range(20):
        n = int(gen.integers(2, 6))
        parts = all_partitions(n)
        p = parts[int(gen.integers(len(parts)))]
        w = _witness(gen, n)
        value = separability_bound(w, p)
        cert_X, cert_P = _block_certificate(w, p)
        again = quantum_bound(cert_X, cert_P)
        assert abs(again - value) < 1e-8
        keep = ~free_mask(p)
        assert np.array_equal(cert_X[keep], w.X[keep])
        assert np.array_equal(cert_P[keep], w.P[keep])
        for M in (cert_X, cert_P):
            assert float(np.linalg.eigvalsh(M)[0]) >= -1e-9


def test_rank_one_closed_form():
    gen = np.random.default_rng(5)
    for _ in range(30):
        n = int(gen.integers(2, 7))
        parts = all_partitions(n)
        p = parts[int(gen.integers(len(parts)))]
        h = gen.standard_normal(n)
        g = gen.standard_normal(n)
        if gen.uniform() < 0.3:
            h[int(gen.integers(n))] = 0.0  # rank-deficient diagonal blocks
        want = sum(
            abs(sum(h[i - 1] * g[i - 1] for i in block)) for block in p.blocks
        )
        assert rank_one_bound(h, g, p) == pytest.approx(want, abs=1e-12)
        full = separability_bound(WitnessPair(np.outer(h, h), np.outer(g, g)), p)
        assert full >= rank_one_bound(h, g, p) - 1e-8
        assert full == pytest.approx(want, abs=1e-7)


def test_rank_one_validates_input():
    p = parse_partition("1|2", 2)
    with pytest.raises(ValueError):
        rank_one_bound(np.ones(3), np.ones(2), p)
    with pytest.raises(ValueError):
        rank_one_bound(np.ones(3), np.ones(3), p)


def test_lmi_on_bound_entangled_state(ppt4):
    for text in ("1|234", "2|134", "3|124", "4|123"):
        violated, low, pattern = lmi_separability_test(
            ppt4, parse_partition(text, 4)
        )
        assert violated
        assert low < -1e-6
        assert pattern[0] == 1
    violated, low, pattern = lmi_separability_test(ppt4, parse_partition("1|234", 4))
    assert low == pytest.approx(-0.04893, abs=1e-4)
    assert pattern == (1, -1, -1, -1)
    for text in ("12|34", "13|24", "14|23"):
        violated, low, _ = lmi_separability_test(ppt4, parse_partition(text, 4))
        assert not violated
        assert low >= -1e-9


def test_lmi_never_fires_on_separable_state(vacuum4):
    for p in all_partitions(4):
        violated, low, _ = lmi_separability_test(vacuum4, p)
        assert not violated
        assert low >= -1e-12


def _lmi_loop(s, p):
    # The sign-pattern test one matrix at a time, (1,) + tail in product
    # order; a later pattern replaces the worst only when strictly lower.
    lowest, worst = np.inf, None
    for tail in product((1, -1), repeat=p.k - 1):
        eps = np.array((1,) + tail)[p.labels]
        E = np.diag(eps / 2.0)
        low = float(np.linalg.eigvalsh(np.block([[s.gamma_xx, E], [E, s.gamma_pp]]))[0])
        if low < lowest:
            lowest, worst = low, tuple(eps.tolist())
    return lowest < -PSD_TOL, lowest, worst


def _lmi_corpus(ppt4, klev4, vacuum4):
    # Seeded network states with k = 1..min(n, 6) blocks of shuffled modes,
    # and every partition of the three builtin states.
    gen = np.random.default_rng(29)
    cases = [(s, p) for s in (ppt4, klev4, vacuum4) for p in all_partitions(4)]
    for n in range(2, 8):
        for k in range(1, min(n, 6) + 1):
            for seed in range(3):
                cuts = np.sort(gen.choice(np.arange(1, n), k - 1, replace=False))
                blocks = np.split(gen.permutation(n) + 1, cuts)
                cases.append((_network_state(n, 100 * n + 10 * k + seed), Partition.of(blocks, n)))
    return cases


def test_lmi_matches_a_per_pattern_loop(ppt4, klev4, vacuum4):
    cases = _lmi_corpus(ppt4, klev4, vacuum4)
    assert {p.k for _, p in cases} == set(range(1, 7))
    violated = set()
    for s, p in cases:
        got = lmi_separability_test(s, p)
        assert type(got[0]) is bool and type(got[1]) is float, p.text
        assert got == _lmi_loop(s, p), (s.label, p.text)
        violated.add(got[0])
    assert violated == {True, False}


def test_lmi_keeps_the_first_of_tied_minima(monkeypatch, klev4):
    # Every pattern but the all-plus one gets the same least eigenvalue, so
    # the worst is the second pattern in product order: the last block flipped.
    def tied(M):
        off = np.diagonal(M[..., :4, 4:], axis1=-2, axis2=-1)
        return np.broadcast_to(-1.0 * (off < 0).any(-1)[..., None], M.shape[:-1])

    monkeypatch.setattr(np.linalg, "eigvalsh", tied)
    for text, want in (("1|234", (1, -1, -1, -1)), ("12|3|4", (1, 1, 1, -1))):
        p = parse_partition(text, 4)
        assert lmi_separability_test(klev4, p) == (True, -1.0, want) == _lmi_loop(klev4, p)


@pytest.mark.parametrize("n", [3, 5])
def test_lmi_test_refuses_a_mode_count_mismatch(ppt4, n):
    with pytest.raises(ValueError, match=f"state is 4-mode but partition is over {n}"):
        lmi_separability_test(ppt4, Partition.trivial(n))


def test_analytic_biseparable_bound_values():
    printed = {3: 5.00, 4: 10.03, 5: 17.06, 6: 26.07, 7: 37.08, 8: 50.09}
    for n, want in printed.items():
        assert analytic_biseparable_bound(n) == pytest.approx(want, abs=0.01)
    with pytest.raises(ValueError):
        analytic_biseparable_bound(2)


def test_symmetric_witness_quantum_bound_closed_form():
    for n in range(2, 9):
        w = symmetric_witness(n)
        assert w.n == n
        want = (n - 1) * np.sqrt(n * (n - 2))
        assert quantum_bound(w.X, w.P) == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        symmetric_witness(1)


def test_table1_rows():
    printed_b = {3: 5.46, 4: 10.89, 5: 18.26, 6: 27.59, 7: 38.89, 8: 52.17}
    for n in range(2, 9):
        row = table1_bounds(n)
        assert row.q == pytest.approx((n - 1) * np.sqrt(n * (n - 2)), abs=1e-9)
        assert row.f == pytest.approx(n * (n - 1), abs=1e-4)
        if n == 2:
            assert row.a is None and row.b is None
        else:
            assert row.a == pytest.approx(analytic_biseparable_bound(n), abs=1e-9)
            assert row.b == pytest.approx(printed_b[n], abs=0.01)
    for bad in (1, 9):
        with pytest.raises(ValueError):
            table1_bounds(bad)


def test_table1_row_ordering():
    # Finer separability classes can only raise the bound.
    for n in range(3, 9):
        row = table1_bounds(n)
        assert row.q <= row.a + 1e-9
        assert row.a <= row.b + 1e-9
        assert row.b <= row.f + 1e-9


def test_commuting_block_certificate_for_ppt_witness():
    x, y, p_, q_ = 0.144375, 0.084087, 0.232000, 0.039543
    c, d = np.sqrt(x * y), np.sqrt(p_ * q_)
    X = np.array([[x, 0, -c, 0], [0, x, 0, c], [-c, 0, y, 0], [0, c, 0, y]])
    P = np.array([[p_, 0, 0, d], [0, p_, d, 0], [0, d, q_, 0], [d, 0, 0, q_]])
    value = separability_bound(WitnessPair(X, P), parse_partition("12|34", 4))
    assert value >= 2 * (np.sqrt(x * p_) + np.sqrt(y * q_)) - 1e-8


def _random_fill(gen: np.random.Generator, A: np.ndarray, p: Partition) -> np.ndarray:
    """PSD matrix equal to A = F F^T within the blocks of p, random across them.

    Each block's rows of the factor F get their own random rotation Q_b, which
    keeps F_b F_b^T and makes every cross-block entry F_b Q_b Q_c^T F_c^T free;
    mixing with the block-diagonal part shrinks the cross blocks at random.
    """
    n = A.shape[0]
    w, V = np.linalg.eigh(A)
    F = V * np.sqrt(np.clip(w, 0.0, None))
    G = np.empty_like(F)
    for block in p.blocks:
        idx = [i - 1 for i in block]
        Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        G[idx] = F[idx] @ Q
    mask = free_mask(p)
    t = gen.uniform()
    return np.where(mask, t * (G @ G.T), A)


def test_random_fill_never_beats_block_sum():
    # Any PSD completion of the within-block entries is a witness the inner
    # maximum ranges over, so its quantum bound cannot exceed B_I.
    gen = np.random.default_rng(8)
    for n in range(2, 7):
        for p in all_partitions(n):
            w = _witness(gen, n)
            value = separability_bound(w, p)
            for _ in range(2):
                X, P = _random_fill(gen, w.X, p), _random_fill(gen, w.P, p)
                assert quantum_bound(X, P) <= value + 1e-9


def _nuclear_block_sum(X: np.ndarray, P: np.ndarray, p: Partition) -> float:
    total = 0.0
    for block in p.blocks:
        idx = np.ix_([i - 1 for i in block], [i - 1 for i in block])
        M = np.linalg.cholesky(X[idx]).T @ np.linalg.cholesky(P[idx])
        total += float(np.linalg.svd(M, compute_uv=False).sum())
    return total


def test_block_sum_matches_nuclear_norm_oracle():
    # B(X, P) = ||L_X^T L_P||_* for Cholesky factors X = L_X L_X^T, P = L_P L_P^T.
    gen = np.random.default_rng(9)
    for _ in range(60):
        n = int(gen.integers(2, 7))
        parts = all_partitions(n)
        p = parts[int(gen.integers(len(parts)))]
        w = _witness(gen, n, 0.1)
        want = _nuclear_block_sum(w.X, w.P, p)
        assert separability_bound(w, p) == pytest.approx(want, rel=1e-9)


def test_partition_size_mismatch():
    gen = np.random.default_rng(7)
    w = _witness(gen, 3)
    with pytest.raises(ValueError):
        separability_bound(w, parse_partition("12|34", 4))


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_one_pair_takes_the_closed_form(n):
    # A rank-one pair's B_I is the closed form, checked two ways on every
    # partition, also where h_b = 0. The eigen path sums quantum_bound over
    # the blocks of the same matrices; it takes square roots of eigenvalues
    # that are rounding noise, of order eps |h_b|^2 |g_b|^2, which pass its
    # cutoff when <h_b, g_b> is small, so it may be off by about
    # sqrt(eps) |h_b| |g_b| per block (seen up to 2.5e-9 of
    # sum_b |h_b| |g_b| here). The nuclear-norm oracle runs on X + eps I,
    # P + eps I: with factors [h, sqrt(eps) I] and [g, sqrt(eps) I], the
    # triangle inequality puts each block at most
    # sqrt(eps) (|h_b| + |g_b|) + n_b eps above |<h_b, g_b>|, and B only
    # grows with X and P. Both oracles are computed once per block.
    gen = np.random.default_rng(40 + n)
    eps = 1e-12
    for zeros in (0, (n + 1) // 2):
        h, g = gen.standard_normal((2, n))
        h[:zeros] = 0.0
        w = WitnessPair.rank_one(h, g)
        assert np.array_equal(w.X, np.outer(h, h)) and np.array_equal(w.h, h)
        assert np.array_equal(w.P, np.outer(g, g)) and np.array_equal(w.g, g)
        assert WitnessPair(w.X, w.P).h is None
        X, P = w.X + eps * np.eye(n), w.P + eps * np.eye(n)
        oracles = {}
        for p in all_partitions(n):
            got = separability_bound(w, p)
            assert got == rank_one_bound(h, g, p), p.text
            eigen = nuclear = scale = room = 0.0
            for block in p.blocks:
                if block not in oracles:
                    idx = np.array(block) - 1
                    i = np.ix_(idx, idx)
                    hb, gb = np.linalg.norm(h[idx]), np.linalg.norm(g[idx])
                    oracles[block] = (
                        quantum_bound(w.X[i], w.P[i]),
                        _nuclear_block_sum(X[i], P[i], Partition.trivial(idx.size)),
                        hb * gb,
                        np.sqrt(eps) * (hb + gb) + len(block) * eps,
                    )
                e, u, c, r = oracles[block]
                eigen, nuclear, scale, room = eigen + e, nuclear + u, scale + c, room + r
            noise = 8 * np.sqrt(np.finfo(float).eps) * scale
            assert got == pytest.approx(eigen, rel=1e-12, abs=noise), p.text
            assert got - 1e-9 <= nuclear <= got + room + 1e-9, p.text


def test_rank_one_pair_validates_its_vectors():
    with pytest.raises(ValueError):
        WitnessPair.rank_one(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        WitnessPair.rank_one(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        WitnessPair.rank_one(np.array([1.0, np.nan]), np.ones(2))
