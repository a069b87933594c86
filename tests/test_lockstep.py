"""Lockstep descents and stacked line searches.

optimize_witness over a list of partitions must give, bit for bit, the
reports of one call per partition, and both descent loops must pick exactly
the steps of a sequential halving line search. The reference below is that
sequential search written in plain numpy, one matrix at a time; of the
package it uses only linalg.quantum_bound and its one-matrix gradient.
"""
from __future__ import annotations

import numpy as np
import pytest

from cvwitness import (
    SearchConfig,
    all_partitions,
    bipartitions,
    genuine_search,
    make_state,
    optimize_witness,
    parse_partition,
)
from cvwitness.linalg import SingularGradient, quantum_bound, quantum_bound_gradient

OPT_STREAM = 2**63
GENUINE_STREAM = 2**62


def _same(a, b) -> None:
    assert a.partition == b.partition
    assert a.witness.X.tobytes() == b.witness.X.tobytes(), a.partition.text
    assert a.witness.P.tobytes() == b.witness.P.tobytes(), a.partition.text
    assert (a.G, a.sigma, a.bound, a.s) == (b.G, b.sigma, b.bound, b.s)
    assert a.converged == b.converged


def _five_mode_state():
    # Squeezed vacua mixed by a random orthogonal network, plus noise.
    n = 5
    gen = np.random.default_rng(5)
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    r = gen.uniform(0.5, 1.0, n) * np.resize([1.0, -1.0], n)
    gxx = (Q * np.exp(-2 * r) / 2) @ Q.T + 0.02 * np.eye(n)
    gpp = (Q * np.exp(2 * r) / 2) @ Q.T + 0.02 * np.eye(n)
    sig = 0.01 + 0.01 * gen.random((n, n))
    sig = (sig + sig.T) / 2
    return make_state((gxx + gxx.T) / 2, (gpp + gpp.T) / 2, sig, sig)


CASES = {
    "ppt4-no-error": ("ppt4", None, 0.0, True, 2000),
    "klev4-s6": ("klev4", None, 6.0, False, 2000),
    # Block sizes 1 to 4 in one plan; a short budget leaves some descents
    # unconverged, so converged=False is compared as well.
    "five-mode": ("five", 5, 1.0, False, 12),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_list_call_equals_one_partition_calls(case, ppt4, klev4):
    name, n, level, no_error, max_iter = CASES[case]
    state = {"ppt4": ppt4, "klev4": klev4}.get(name) or _five_mode_state()
    parts = (
        bipartitions(4) if n is None else [p for p in all_partitions(n) if p.k > 1]
    )
    cfg = SearchConfig(seed=17, s_level=level)
    together = optimize_witness(state, parts, cfg, no_error=no_error, max_iter=max_iter)
    assert len(together) == len(parts)
    for p, r in zip(parts, together):
        alone = optimize_witness(state, p, cfg, no_error=no_error, max_iter=max_iter)
        _same(r, alone)
    if case == "five-mode":
        assert {len(b) for p in parts for b in p.blocks} == {1, 2, 3, 4}
        assert 0 < sum(r.converged for r in together) < len(parts)


def test_list_mode_edge_cases(ppt4):
    cfg = SearchConfig(seed=1, s_level=0.0)
    assert optimize_witness(ppt4, [], cfg, no_error=True) == []
    p = parse_partition("12|34", 4)
    (r,) = optimize_witness(ppt4, (p,), cfg, no_error=True)
    _same(r, optimize_witness(ppt4, p, cfg, no_error=True))
    with pytest.raises(ValueError, match="partition is over 3"):
        optimize_witness(ppt4, [p, parse_partition("1|23", 3)], cfg, no_error=True)


def test_list_mode_callback_order(klev4):
    # Each iteration calls back once per running partition, in partition
    # order; a partition that stopped is not called again.
    parts = bipartitions(4)
    cfg = SearchConfig(seed=4, s_level=3.0)
    alone = []
    for p in parts:
        seen = []
        optimize_witness(
            klev4, p, cfg, callback=lambda it, X, P, v: seen.append((it, X.tobytes(), v))
        )
        alone.append(seen)
    assert len({len(seen) for seen in alone}) > 1  # they stop at different times
    want = [
        (j, seen[it - 1])
        for it in range(1, max(map(len, alone)) + 1)
        for j, seen in enumerate(alone)
        if it <= len(seen)
    ]
    got = []
    optimize_witness(
        klev4, parts, cfg, callback=lambda it, X, P, v: got.append((it, X.tobytes(), v))
    )
    assert got == [call for _, call in want]


# --- the sequential reference ------------------------------------------------


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normalize(X, P, s, C):
    G = float(np.sum(X * s.gamma_xx) + np.sum(P * s.gamma_pp))
    assert G > 0
    return (C / G) * X, (C / G) * P


def _start(s, seed, stream, C):
    gen = _philox(seed, stream)
    R1 = gen.standard_normal((s.n, s.n))
    R2 = gen.standard_normal((s.n, s.n))
    return _normalize(R1.T @ R1 + 0.1 * np.eye(s.n), R2.T @ R2 + 0.1 * np.eye(s.n), s, C)


def _project(X, P, s, C):
    out = []
    for A in (X, P):
        w, V = np.linalg.eigh((A + A.T) / 2.0)
        M = (V * np.maximum(w, 0.0)) @ V.T
        out.append((M + M.T) / 2.0)
    return _normalize(out[0], out[1], s, C)


def _blocks(p):
    return [np.ix_(np.array(b) - 1, np.array(b) - 1) for b in p.blocks]


def _bound(X, P, p) -> float:
    total = 0.0
    for ix in _blocks(p):
        total += quantum_bound(X[ix], P[ix])
    return total


def _bound_gradient(X, P, p):
    gX, gP = np.zeros_like(X), np.zeros_like(P)
    for ix in _blocks(p):
        A, B = X[ix], P[ix]
        eye = np.eye(A.shape[0])
        gX[ix] = gP[ix] = 0.0
        for shift in (0.0, 1e-11, 1e-8, 1e-5, 1e-3):
            try:
                gX[ix], gP[ix] = quantum_bound_gradient(A + shift * eye, B + shift * eye)
                break
            except SingularGradient:
                continue
    return gX, gP


def _reference_optimize(s, p, cfg, no_error, max_iter=2000, tol=1e-10):
    """The pre-lockstep optimize_witness loop, one candidate per step."""
    if s.has_error_model and not no_error:
        sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    else:
        sxx2 = spp2 = np.zeros((s.n, s.n))
    gxx, gpp = s.gamma_xx, s.gamma_pp

    def objective(X, P):
        sigma = float(np.sqrt(np.sum(X**2 * sxx2) + np.sum(P**2 * spp2)))
        return cfg.s_level * sigma - _bound(X, P, p), sigma

    X, P = _start(s, cfg.seed, OPT_STREAM, cfg.C)
    value, sigma = objective(X, P)
    step, streak, steps = 0.1, 0, []
    for _ in range(max_iter):
        bX, bP = _bound_gradient(X, P, p)
        if sigma > 0:
            gX = cfg.s_level * X * sxx2 / sigma - bX
            gP = cfg.s_level * P * spp2 / sigma - bP
        else:
            gX, gP = -bX, -bP
        coef = float(np.sum(gX * gxx) + np.sum(gP * gpp)) / float(
            np.sum(gxx * gxx) + np.sum(gpp * gpp)
        )
        gX, gP = gX - coef * gxx, gP - coef * gpp
        gnorm2 = float(np.sum(gX * gX) + np.sum(gP * gP))
        if np.sqrt(gnorm2) < 1e-12:
            return X, P, True, steps
        t = step
        while t > 1e-14:
            Xn, Pn = _project(X - t * gX, P - t * gP, s, cfg.C)
            vn, sn = objective(Xn, Pn)
            if vn <= value - 1e-4 * t * gnorm2:
                break
            t *= 0.5
        else:
            return X, P, True, steps
        steps.append(t)
        step = min(1.0, 2.0 * t)
        streak = streak + 1 if value - vn <= tol * max(1.0, abs(value)) else 0
        X, P, value, sigma = Xn, Pn, vn, sn
        if streak >= 5:
            return X, P, True, steps
    return X, P, False, steps


def _reference_genuine(s, cfg, restarts, max_iter):
    """The pre-lockstep genuine_search loop; returns the best pair and the
    accepted steps."""
    bips = bipartitions(s.n)
    sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    gxx, gpp = s.gamma_xx, s.gamma_pp

    def G_sigma(X, P):
        G = float(np.sum(X * gxx) + np.sum(P * gpp))
        return G, float(np.sqrt(np.sum(X**2 * sxx2) + np.sum(P**2 * spp2)))

    def scores(X, P):
        G, sigma = G_sigma(X, P)
        if sigma <= 0:
            return None
        return (np.array([_bound(X, P, q) for q in bips]) - G) / sigma

    best_min, best, steps = -np.inf, None, []
    for attempt in range(restarts + 1):
        X, P = _start(s, cfg.seed, GENUINE_STREAM + attempt, cfg.C)
        cur = scores(X, P)
        for _ in range(max_iter):
            low = float(cur.min())
            if low > best_min:
                best_min, best = low, (X.copy(), P.copy())
            if low >= cfg.s_level:
                return best, steps
            G, sigma = G_sigma(X, P)
            dsX, dsP = X * sxx2 / sigma, P * spp2 / sigma
            gX, gP = np.zeros_like(X), np.zeros_like(P)
            active = np.flatnonzero(cur < low + 0.2)
            for k in active:
                bX, bP = _bound_gradient(X, P, bips[k])
                bk = _bound(X, P, bips[k])
                gX += (bX - gxx) / sigma - (bk - G) * dsX / sigma**2
                gP += (bP - gpp) / sigma - (bk - G) * dsP / sigma**2
            gX /= active.size
            gP /= active.size
            t = 0.1
            while t > 1e-12:
                Xn, Pn = _project(X + t * gX, P + t * gP, s, cfg.C)
                nxt = scores(Xn, Pn)
                if nxt is not None and float(nxt.min()) > low:
                    break
                t *= 0.5
            else:
                break
            steps.append(t)
            X, P, cur = Xn, Pn, nxt
    return best, steps


@pytest.mark.parametrize(
    "name, part, level, no_error",
    [
        ("ppt4", "1|234", 0.0, True),
        ("ppt4", "12|34", 0.0, True),
        ("klev4", "1|234", 6.0, False),
        ("klev4", "13|24", 2.0, False),
    ],
)
def test_optimize_matches_sequential_reference(name, part, level, no_error, ppt4, klev4):
    state = {"ppt4": ppt4, "klev4": klev4}[name]
    p = parse_partition(part, 4)
    cfg = SearchConfig(seed=7, s_level=level)
    X, P, converged, steps = _reference_optimize(state, p, cfg, no_error)
    # Some steps were taken only after halving, so the chunked ladder is
    # exercised past its first chunk.
    assert any(b < min(1.0, 2.0 * a) for a, b in zip(steps, steps[1:]))
    got = optimize_witness(state, [p], cfg, no_error=no_error)[0]
    assert got.witness.X.tobytes() == ((X + X.T) / 2).tobytes()
    assert got.witness.P.tobytes() == ((P + P.T) / 2).tobytes()
    assert got.converged == converged
    assert got.bound == _bound(got.witness.X, got.witness.P, p)


@pytest.mark.parametrize("name, level, restarts, max_iter", [
    ("klev4", 4.0, 3, 300),
    ("vacuum4", 4.0, 1, 40),
])
def test_genuine_matches_sequential_reference(name, level, restarts, max_iter, klev4, vacuum4):
    state = {"klev4": klev4, "vacuum4": vacuum4}[name]
    cfg = SearchConfig(seed=0, s_level=level)
    (X, P), steps = _reference_genuine(state, cfg, restarts, max_iter)
    assert min(steps) < 0.1 / 2**5  # ladders beyond the first chunks
    _, w, _ = genuine_search(state, cfg, restarts=restarts, max_iter=max_iter)
    assert w.X.tobytes() == ((X + X.T) / 2).tobytes()
    assert w.P.tobytes() == ((P + P.T) / 2).tobytes()
