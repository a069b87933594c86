"""Error-aware entanglement certification.

Measured covariances come with per-element standard deviations, so a witness
value G is only trusted up to sigma(X, P). A partition is refuted at level s
when G + s*sigma still falls below the separability bound B_I. This module
scores witnesses, converts levels to confidences, and finds violating
witnesses: random rank-one sampling, the best rank-one margin (an eigenvector),
and the exact optimum of a convex program by raw margin per partition
(_werner_wolf) or by score, per cut or for genuine multipartite entanglement
(_lift), with the solver's duality gap. Every search ends in _report, which
rescores its winner, and in _certified, the one rule for whether it certifies.
"""
from __future__ import annotations

import functools
import json
import numbers
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import erfc, sqrt
from typing import Sequence

import numpy as np

from . import sdp
from .bounds import WitnessPair, evaluate_G, lmi_separability_test
from .bounds import _block_certificate, rank_one_bound, separability_bound
from .linalg import _frozen
from .partitions import Partition, _partition_list, bipartitions
from .states import CVState, is_physical

_BATCH = 65536
_PROBE = 64  # top trials per batch that set its pruning threshold
_TILE = 4096  # trials per transposed tile of G, sigma and the trial bound
_TIE = 1e-6  # relative rounding the witness column ignores (solver witnesses: 1e-7)
_SIGN_TIE = 1e-3  # relative spread of entries the sign rule treats as tied


class MissingErrorModel(ValueError):
    """State carries no sigma blocks but an error-aware quantity was asked."""


class ZeroSigma(ValueError):
    """sigma(X, P) vanished, so the violation score is undefined."""


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Scorecard of one witness against one partition of one state."""

    partition: Partition
    G: float
    sigma: float | None
    bound: float
    s: float | None
    confidence: float | None
    witness: WitnessPair
    converged: bool = True
    gap: float | None = None  # duality gap of the solver; None off the solver


def _at_least(name: str, value, low) -> None:
    """Refuse value below low, or NaN, with a message naming it."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_draws(trials: int, seed: int) -> None:
    """Refuse trials but an integer >= 1, or a seed (the Philox key) but one in [0, 2^64)."""
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, numbers.Integral):  # 1.9 would run as seed 1
            raise ValueError(f"{name} must be an integer, got {value!r}")
    _at_least("trials", trials, 1)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def _require_model(s: CVState, score: bool = False) -> None:
    """Refuse a state without an error model, or with score=True an all-zero one."""
    if not s.has_error_model:
        raise MissingErrorModel(
            f"state {s.label or '<unnamed>'} has no sigma_xx/sigma_pp blocks"
        )
    if score and not (np.any(s.sigma_xx) or np.any(s.sigma_pp)):
        raise ZeroSigma("every sigma entry is 0; violation score undefined")


def measurement_sigma(w: WitnessPair, s: CVState) -> float:
    """sigma(X, P): error of G propagated from the per-element deviations.

    Full ordered double sum: off-diagonal terms enter twice, matching the
    symmetric way they enter G.
    """
    _require_model(s)
    if w.n != s.n:
        raise ValueError(f"witness is {w.n}-mode but state is {s.n}-mode")
    total = np.sum(w.X**2 * s.sigma_xx**2) + np.sum(w.P**2 * s.sigma_pp**2)
    return float(np.sqrt(total))


def condition_E(w: WitnessPair, s: CVState, p: Partition, s_level: float) -> float:
    """E_I = G + s_level*sigma - B_I; negative refutes I-separability."""
    _at_least("s_level", s_level, 0)
    sigma = measurement_sigma(w, s) if s_level > 0 else 0.0
    return evaluate_G(w, s) + s_level * sigma - separability_bound(w, p)


def confidence(s: float) -> float:
    """Probability that noise alone produced a violation at level s."""
    if s < 0:
        warnings.warn("negative violation level; confidence clamped to 1")
        return 1.0
    return erfc(s / sqrt(2.0))


def violation_score(w: WitnessPair, s: CVState, p: Partition) -> ViolationReport:
    """Score a witness: s = (B_I - G)/sigma and its confidence."""
    sigma = measurement_sigma(w, s)
    if sigma <= 0.0:
        raise ZeroSigma("sigma(X, P) = 0; violation score undefined")
    bound = separability_bound(w, p)
    G = evaluate_G(w, s)
    score = (bound - G) / sigma
    conf = confidence(score) if score >= 0 else 1.0
    return ViolationReport(p, G, sigma, bound, score, conf, w)


def _report(w: WitnessPair, s: CVState, p: Partition, score: bool, **solver):
    """Rescore a search's winner: through violation_score when score is set,
    else by the raw margin only. solver holds the converged and gap fields."""
    if score:
        return replace(violation_score(w, s, p), **solver)
    bound = separability_bound(w, p)
    return ViolationReport(p, evaluate_G(w, s), None, bound, None, None, w, **solver)


def rounding_bound(w: WitnessPair, s: CVState) -> float:
    """Bound on the rounding error of a computed margin B_I - G.

    G and each block's eigenvalue sum are sums of at most n^2 products, so
    their errors are a modest multiple of n eps (|X| |gamma_xx| + |P|
    |gamma_pp|), Frobenius norms; the factor 64 covers the eigensolver.
    """
    x, p = np.linalg.norm(w.X), np.linalg.norm(w.P)
    scale = x * np.linalg.norm(s.gamma_xx) + p * np.linalg.norm(s.gamma_pp)
    return float(64 * w.n * np.finfo(float).eps * scale)


def _certified(r: ViolationReport, state: CVState, s_level: float) -> bool:
    """Whether a search report certifies. One block certifies nothing: B(X, P)
    bounds every physical state. A score must reach s_level, and its margin
    B_I - G beat its rounding bound, so at s_level = 0 a tie certifies
    nothing. A raw margin must beat the solver's duality gap (none off the
    solver), its own rounding bound, and (1/2 - nu_min)(tr X + tr P), with
    nu_min = is_physical(state)[1], which the state works out once: nu_min
    is superadditive, so gamma + (1/2 - nu_min) I is physical, and a
    separable state that close moves G by at most that."""
    if r.partition.k < 2:
        return False
    rounding = rounding_bound(r.witness, state)
    if r.s is None:
        room = max(0.0, 0.5 - is_physical(state)[1])
        room *= float(np.trace(r.witness.X) + np.trace(r.witness.P))
        return r.bound - r.G > (r.gap or 0.0) + rounding + room
    return r.s >= s_level and r.bound - r.G > rounding


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not isinstance(threads, numbers.Integral):  # a pool of 1.5 workers starts 2
        raise ValueError(f"threads must be an integer, got {threads!r}")
    _at_least("threads", threads, 1)
    return threads


def _batch_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quad(V: np.ndarray, A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column-wise quadratic forms v_t^T A v_t of V laid out (n, t); out, if
    given, is an (n, t) scratch array for A V.

    Two two-operand einsums whose inner loops run along the t trials of
    contiguous rows; unlike a matmul, they start no BLAS threads, which
    would pile onto the search's own thread pool.
    """
    return np.einsum("it,it->t", np.einsum("ij,jt->it", A, V, out=out), V)


def _trial_bound(H: np.ndarray, G: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per row, sum_i |h_i g_i| (1 + 1e-12): see random_rank_one_search. out,
    if given, is a scratch array laid out as H * G would be."""
    return np.abs(np.multiply(H, G, out=out), out=out).sum(axis=1) * (1 + 1e-12)


def random_rank_one_search(
    s: CVState,
    p: Partition | Sequence[Partition],
    *,
    trials: int = 10**6,
    seed: int = 0,
    threads: int | None = None,
) -> ViolationReport | list[ViolationReport]:
    """Best violation over trials random rank-one witnesses X=hh^T, P=gg^T.

    p is one partition (one report) or a sequence (one report each, in
    order). One set of trials, standard normal draws in 65536-trial batches
    from Philox streams keyed by (seed, batch), scores every partition, so
    results equal those of one call per partition. Ties go to the lowest
    trial index, whatever the thread count. Winners are rank-one
    WitnessPairs, whose bound is the closed form. An all-zero error model
    raises ZeroSigma at once.

    Pruning. The computed S_t = sum_i |h_i g_i| (1 + 1e-12) (_trial_bound)
    is at least every computed B_I of trial t: |sum_b h_i g_i| <=
    sum_b |h_i g_i|, and float sums of n terms keep the computed B_I below
    S (1 + 2n eps) and the computed S above S (1 - n eps), a gap the slack
    covers up to n = 1000. Subtracting G and dividing by sigma round
    monotonically, and a float difference is positive exactly when the exact
    one is. So only a trial with margin S_t - G_t > 0 can score above 0, and
    only those get sigma and every partition's block sums: a partition with
    a positive best there has its winner there, the first maximum. Any other
    partition is scored on the trials whose u_t = (S_t - G_t)/sigma_t, an
    upper bound on each of their scores, reaches theta: the smallest over
    those partitions of the best score on the _PROBE trials of largest u.

    Memory. A batch is drawn _TILE trials at a time; the Philox stream
    continues across tiles, so the draws are those of one call. It is
    settled once every partition has a positive-margin trial that surely
    scores above 0 (settle, which checks a tile's first few such trials).
    Until then the whole batch (draws, G and margin) is kept for the
    fallback above; from then on only the positive-margin trials are kept,
    and later tiles are drawn into the worker's reused row of 5n x _TILE
    doubles. So a batch settled in its first tile holds that row and its
    positive-margin trials, one that never settles about one
    (65536, 2n) draw more. Each batch's winners are merged into one running
    best per partition as the batch finishes.
    """
    _check_draws(trials, seed)
    _require_model(s, score=True)
    parts = _partition_list(p, s.n)
    n = s.n
    batches = range((trials + _BATCH - 1) // _BATCH)
    workers = min(_resolve_threads(threads), len(batches))
    if not parts:
        return []
    gxx, gpp = s.gamma_xx, s.gamma_pp
    sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    sigma_sq = np.block([[sxx2, np.zeros((n, n))], [np.zeros((n, n)), spp2]])
    onehot = np.zeros((n, max(q.k for q in parts), len(parts)))  # mode, block, partition
    for j, q in enumerate(parts):
        onehot[np.arange(n), q.labels, j] = 1.0
    few = max(1, _BATCH // onehot[0].size)  # settle's trials per tile: _BATCH block sums

    def sigma(R):  # sigma^2 of the rows of R, _TILE rows at a time
        var = np.empty(len(R))
        for lo in range(0, len(R), _TILE):
            T = R[lo : lo + _TILE].T.copy()  # (2n, tile), contiguous
            np.square(T, out=T)
            var[lo : lo + _TILE] = _quad(T[:n], sxx2) + _quad(T[n:], spp2)
        return var

    def settle(T, gval, cap, settled):
        """Mark settled each partition for which a column of T, the
        transposed (2n, t) rows of positive-margin trials with G gval and
        trial bound cap, surely scores above 0 in best, whatever the rounding.

        The block sums through onehot differ from rank_one_bound's by under
        5n eps S_t, so a trial whose sums pass gval + 1e-11 S_t + 2^-250 has
        a computed B_I - G above 2^-251 up to n = 1000. It counts only with
        sigma^2 in [2^-500, 2^500], which summing in another order cannot
        move to 0 or inf, so its score cannot round to 0.
        """
        todo = np.flatnonzero(~settled)
        cols = onehot[:, :, todo].reshape(n, -1)  # column b * len(todo) + j
        sums = np.abs(np.einsum("it,ib->tb", T[:n] * T[n:], cols))  # no BLAS threads
        bound = np.einsum("tbj->tj", sums.reshape(len(gval), onehot.shape[1], len(todo)))
        wins = bound > (gval + 1e-11 * cap + 2.0**-250)[:, None]
        rows = np.flatnonzero(wins.any(axis=1))
        if rows.size:
            var = _quad(np.square(T[:, rows]), sigma_sq)
            settled[todo] |= wins[rows[(var >= 2.0**-500) & (var <= 2.0**500)]].any(axis=0)

    def per_sigma(x, v):  # x / sigma, -inf where sigma is 0
        return np.where(v > 0, x / np.sqrt(np.where(v > 0, v, 1.0)), -np.inf)

    def best(R, gval, rows, var, qs):
        """Per partition of qs: best score on rows of R, whose G is gval and
        sigma^2 var, and the first row reaching it."""
        top, at = np.full(len(qs), -np.inf), np.zeros(len(qs), dtype=int)
        step = max(1, _BATCH // len(qs))
        for lo in range(0, rows.size, step):
            r, v = rows[lo : lo + step], var[lo : lo + step]
            sc = per_sigma(rank_one_bound(R[r, :n], R[r, n:], qs) - gval[r], v)
            k = sc.argmax(axis=1)  # first maximum: lowest trial index
            val = sc[np.arange(len(qs)), k]
            up = val > top
            top[up], at[up] = val[up], r[k[up]]
        return top, at

    # Each worker takes one row of spare, for a tile's draws, their
    # transpose and A V, and reuses it for every full tile of its batches:
    # tiles or batches that allocated and freed their own would hand the
    # memory back to the system and fault it in again, tile after tile.
    spare, mine = list(np.empty((workers, 5 * n * min(_TILE, trials)))), threading.local()

    def run_batch(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        size = min(_BATCH, trials - b * _BATCH)
        if not hasattr(mine, "row"):
            mine.row = spare.pop()
        tile = min(_TILE, size)
        buf = mine.row[: 2 * n * tile].reshape(tile, 2 * n)
        work = mine.row[2 * n * tile : 5 * n * tile].reshape(3 * n, tile)
        gen = _batch_rng(seed, b)
        Z = gval = margin = None  # the whole batch, while some partition is unsettled
        settled, done, kept = np.zeros(len(parts), dtype=bool), False, []
        for lo in range(0, size, _TILE):
            D = buf[: size - lo] if Z is None else Z[lo : lo + _TILE]
            gen.standard_normal(out=D)
            if len(D) == len(buf):  # T is the (2n, tile) transpose, contiguous
                T, AV, HG = work[: 2 * n], work[2 * n :], work[2 * n :].T
                np.copyto(T, D.T)
            else:  # a partial tile, the last of the last batch
                T, AV, HG = D.T.copy(), None, None
            g = _quad(T[:n], gxx, AV) + _quad(T[n:], gpp, AV)
            cap = _trial_bound(T[:n].T, T[n:].T, HG)
            pos = np.flatnonzero(cap > g)  # margin cap - g > 0
            kept.append((D.take(pos, axis=0), g.take(pos), lo + pos))
            if done:
                continue
            if Z is not None:
                gval[lo : lo + _TILE], margin[lo : lo + _TILE] = g, cap - g
            head = pos[:few]
            settle(T[:, head], g[head], cap[head], settled)
            done = settled.all()
            if done:
                Z = gval = margin = None
            elif Z is None:
                Z, (gval, margin) = np.empty((size, 2 * n)), np.empty((2, size))
                Z[: len(D)], gval[: len(D)], margin[: len(D)] = D, g, cap - g

        R, gpos, trial = (np.concatenate(a) for a in zip(*kept))
        del kept  # the per-tile copies, before scoring
        top, at = best(R, gpos, np.arange(len(R)), sigma(R), parts)
        won = top > 0
        rows, index = np.zeros((len(parts), 2 * n)), np.zeros(len(parts), dtype=int)
        rows[won], index[won] = R[at[won]], trial[at[won]]
        fall = np.flatnonzero(~won)
        if fall.size:  # never on a settled batch
            qs = [parts[j] for j in fall]
            var = sigma(Z)
            upper = per_sigma(margin, var)
            probe = np.argpartition(upper, size - min(_PROBE, size))[-_PROBE:]
            theta = best(Z, gval, probe, var[probe], qs)[0].min()
            cand = np.flatnonzero(upper >= theta)
            top[fall], at = best(Z, gval, cand, var[cand], qs)
            rows[fall], index[fall] = Z[at], at
        return top, b * _BATCH + index, rows

    # The running best per partition, keyed (score, -trial index): a total
    # order, so batches merge in any order to the same winners.
    top, first = np.full(len(parts), -np.inf), np.zeros(len(parts), dtype=int)
    winners, lock = np.zeros((len(parts), 2 * n)), threading.Lock()

    def merge(b: int) -> None:
        score, index, rows = run_batch(b)
        with lock:
            up = (score > top) | ((score == top) & (index < first))
            top[up], first[up], winners[up] = score[up], index[up], rows[up]

    if workers == 1:
        for b in batches:
            merge(b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(merge, batches))
    if np.any(top == -np.inf):
        raise ZeroSigma("every trial had zero sigma; check the error model")
    reports = [
        _report(WitnessPair.rank_one(hg[:n], hg[n:]), s, q, True)
        for q, hg in zip(parts, winners)
    ]
    return reports[0] if isinstance(p, Partition) else reports


def rank_one_optimum(
    s: CVState, p: Partition | Sequence[Partition]
) -> ViolationReport | list[ViolationReport]:
    """The unit rank-one witness X=hh^T, P=gg^T of largest raw margin B_I - G:
    the eigenvector of lmi_separability_test's worst pattern (see there). One
    report per partition, as random_rank_one_search; PartitionError above 12 blocks."""
    parts = _partition_list(p, s.n)
    reports = [_rank_one_report(s, q, lmi_separability_test(s, q)[2]) for q in parts]
    return reports[0] if isinstance(p, Partition) else reports


def _rank_one_report(s: CVState, p: Partition, pattern: Sequence[int]) -> ViolationReport:
    """Raw-margin report of the unit eigenvector at the least eigenvalue of
    [[gxx, E/2], [E/2, gpp]], E = diag(pattern); at p's worst pattern from
    lmi_separability_test, it is rank_one_optimum's report for p."""
    half = np.diag(pattern) / 2.0
    v = np.linalg.eigh(np.block([[s.gamma_xx, half], [half, s.gamma_pp]]))[1][:, 0]
    return _report(WitnessPair.rank_one(v[: s.n], v[s.n :]), s, p, False)


@functools.lru_cache(maxsize=8)
def _werner_wolf_program(n: int, cuts: tuple[Partition, ...]) -> tuple:
    """What _werner_wolf's program takes from n and the cuts alone: gain,
    the start at eps = 1, the blocks with 0 in place of gamma, their
    sdp.Structure, and per cut (t's index, its gamma_xx block, and the
    y-indices of its a_b and of its c_b, one n_b x n_b array per block b)."""
    lay, cuts_at = sdp.Layout(), []
    for label, q in enumerate(cuts):
        t = lay.var((), label, 1.0, 1.0)
        a, c = (lay.sym(q.labels[:, None] == q.labels, label, np.eye(n)) for _ in "ac")
        at = tuple(tuple(_frozen(m[np.ix_(idx, idx)]) for idx in q.indices) for m in (a, c))
        cuts_at.append((_frozen(t), lay.lmi(np.zeros((n, n)), (a, -1, 0, 0)), at))
        lay.lmi(np.zeros((n, n)), (c, -1, 0, 0))
        for ab, cb in zip(*at):
            k, tI = len(ab), np.where(np.eye(len(ab)) > 0, t, -1)
            lay.lmi(np.zeros((2 * k, 2 * k)), (ab, 1, 0, 0), (cb, 1, k, k), (tI, 0.5, 0, k))
    return lay.done() + (tuple(cuts_at),)


def _werner_wolf(s: CVState, cuts: Sequence[Partition]) -> list[tuple]:
    """The Werner-Wolf program per cut, each cut a solver group: one (witness
    at G = 1, gap, converged, (t, [a_b], [c_b])) per cut.

    max t s.t. gxx - (+)a_b, gpp - (+)c_b, [[a_b, (t/2) I], [(t/2) I, c_b]]
    PSD (Werner & Wolf, PRL 86, 3658 (2001)); 1/t* is the least r with r gamma
    I-separable. The dual on the two n x n blocks, at G = t*, minimizes G s.t.
    B_I >= 1, so the margin at G = 1 is 1/t* - 1 and the gap |1/t - 1/G| is in
    margin units. It starts at a_b = c_b = eps I, t = eps, eps half the least
    eigenvalue of gamma, which must be positive definite (else ValueError).
    """
    low = min(float(np.linalg.eigvalsh(g)[0]) for g in (s.gamma_xx, s.gamma_pp))
    if not low > 0:
        raise ValueError(f"gamma is not positive definite ({low:.3g}): nonpositive G")
    gain, start, blocks, st, cuts_at = _werner_wolf_program(s.n, tuple(cuts))
    blocks = list(blocks)
    for _, j, _ in cuts_at:
        blocks[j] = replace(blocks[j], F0=s.gamma_xx)
        blocks[j + 1] = replace(blocks[j + 1], F0=s.gamma_pp)
    sol = sdp.solve(gain, blocks, (low / 2) * start, st)
    out = []
    for t, j, at in cuts_at:
        X, P, t = sol.W[j], sol.W[j + 1], float(sol.y[t])
        G = float(np.sum(s.gamma_xx * X) + np.sum(s.gamma_pp * P))
        a, c = ([sol.y[i] for i in m] for m in at)
        witness = WitnessPair((1.0 / G) * X, (1.0 / G) * P)
        out.append((witness, abs(1.0 / t - 1.0 / G), sol.converged, (t, a, c)))
    return out


@functools.lru_cache(maxsize=8)
def _lift_program(n: int, cuts: tuple[Partition, ...], shared: bool) -> tuple:
    """What _lift's program takes from n, the cuts and shared alone: gain, the
    start at eps = 1 but for t, the blocks with 1 in place of sd and of -gam,
    their sdp.Structure, and per copy the y-indices of X and P's upper
    triangles, of X, P and t, and the indices of its sigma and linear blocks."""
    lay, iu, copies = sdp.Layout(), np.triu_indices(n), []
    for label, members in [(-1, cuts)] if shared else enumerate([q] for q in cuts):
        X, P = (lay.sym(np.ones((n, n)), label, np.eye(n)) for _ in "XP")
        xp, t = np.concatenate([X[iu], P[iu]]), lay.var((), label, 1.0)
        lay.lmi(np.zeros((n, n)), (X, 1, 0, 0))
        lay.lmi(np.zeros((n, n)), (P, 1, 0, 0))
        arrow, lines = lay.lmi(np.eye(xp.size + 1), (xp[None], 1, 0, 1)), []
        for j, q in enumerate(members):
            terms = [(xp, 1, 0, 0), (t, -1, 0, 0)]
            for idx in q.indices:
                k, bb = idx.size, np.ix_(idx, idx)
                Y = lay.var((k, k), j if shared else label)
                lay.lmi(np.zeros((2 * k, 2 * k)), (X[bb], 1, 0, 0), (P[bb], 1, k, k), (Y, 1, 0, k))
                terms.append((np.diagonal(Y), 1, 0, 0))
            lines.append(lay.lmi(0.0, *terms))
        copies.append((*map(_frozen, (xp, X, P, t)), arrow, tuple(lines)))
    return lay.done() + (tuple(copies),)


def _lift(
    s: CVState, cuts: Sequence[Partition], shared: bool
) -> list[tuple[WitnessPair, float, bool]]:
    """Solve the lifted score SDP: one (witness at G = 1, gap, converged) per copy.

    B(X_bb, P_bb) = max{tr Y : [[X_bb, Y], [Y^T, P_bb]] PSD}, so one Y per
    block makes B_I linear, with X, P PSD. shared=True gives one witness for
    all cuts, otherwise one copy per cut. It maximizes t subject to
    sigma(X, P) <= 1 (an arrow LMI) and sum_b tr Y_Ib - G >= t for every cut
    I of the copy. The score is scale invariant, so t is the best min_I s_I
    if that is positive; else t = 0 and the witness only shows s <= 0. Each
    cut's Y, or each copy of its own, is one group of the solver. It raises
    ZeroSigma before solving when every sigma entry is 0.
    """
    _require_model(s, score=True)
    b, start, blocks, st, copies = _lift_program(s.n, tuple(cuts), shared)
    iu = np.triu_indices(s.n)
    twice = np.tile(np.where(iu[0] == iu[1], 1.0, 2.0), 2)  # off-diagonals count twice
    gam = twice * np.concatenate([s.gamma_xx[iu], s.gamma_pp[iu]])
    diag = (twice == 1.0) * 1.0
    sd = np.sqrt(twice) * np.concatenate([s.sigma_xx[iu], s.sigma_pp[iu]])
    eps = 0.5 / max(float(np.linalg.norm(sd * diag)), 0.5)  # sigma <= 1/2
    blocks, y0 = list(blocks), eps * start
    for _, _, _, t, arrow, lines in copies:
        y0[t] = -eps * float(gam @ diag) - 1.0
        blocks[arrow] = replace(blocks[arrow], coef=sd)
        for j in lines:
            blocks[j] = replace(blocks[j], coef=np.concatenate([-gam, blocks[j].coef[gam.size :]]))
    sol = sdp.solve(b, blocks, y0, st)
    out = []
    for xp, X, P, t, arrow, _ in copies:
        G = float(gam @ sol.y[xp])
        if not G > 0:
            raise ValueError("witness has nonpositive G; cannot normalize")
        # (1/G) * y rounds unlike y / G, and saved reports carry its digits
        X, P = (1.0 / G) * sol.y[X], (1.0 / G) * sol.y[P]
        dual = float(np.sum(blocks[arrow].F0 * sol.W[arrow]))  # F0 is 0 off this block
        out.append((WitnessPair(X, P), abs(dual - float(sol.y[t])), sol.converged))
    return out


def optimize_witness(
    s: CVState,
    p: Partition | Sequence[Partition],
    *,
    no_error: bool = False,
) -> ViolationReport | list[ViolationReport]:
    """The optimal witness for each partition, with its duality gap.

    It maximizes the score s = (B_I - G)/sigma (_lift), which needs an error
    model (else MissingErrorModel), or with no_error=True the raw margin B_I -
    G (_werner_wolf), and the report carries the margin only. Witnesses come
    at G = 1: a score is scale invariant, and a margin is compared with the
    gap, which does not scale with the witness. Each is rescored through
    violation_score or separability_bound; the gap says how far from the
    optimum it can be. p is one partition (one report) or a sequence (one
    report each, in order, each with its own witness).
    """
    parts = _partition_list(p, s.n)
    if not parts:
        return []
    solved = _werner_wolf(s, parts) if no_error else _lift(s, parts, False)
    reports = [
        _report(w, s, q, not no_error, converged=ok, gap=gap)
        for q, (w, gap, ok, *_) in zip(parts, solved)
    ]
    return reports[0] if isinstance(p, Partition) else reports


def genuine_search(
    s: CVState, *, s_level: float = 6.0
) -> tuple[bool, WitnessPair, list[ViolationReport]]:
    """The witness with the largest min over bipartitions I of s_I.

    One SDP in score mode over every bipartition with one shared witness
    (see _lift); FOUND when _certified accepts every bipartition's report at
    s_level. Each report carries the gap.
    """
    _at_least("s_level", s_level, 0)
    _require_model(s)
    if s.n < 3:
        raise ValueError(f"genuine search needs n >= 3, got {s.n}")
    bips = bipartitions(s.n)
    ((witness, gap, ok),) = _lift(s, bips, True)
    reports = [_report(witness, s, q, True, converged=ok, gap=gap) for q in bips]
    return all(_certified(r, s, s_level) for r in reports), witness, reports


def _describe_witness(w: WitnessPair) -> str:
    """Rank-one witnesses shown by their vectors, others by shape: X and P
    count as rank one when their second eigenvalue is at most _TIE of the first."""
    parts = []
    for name, M, v in (("h", w.X, w.h), ("g", w.P, w.g)):
        if v is None:
            vals, vecs = np.linalg.eigh(M)
            if vals[-1] <= 0 or (w.n > 1 and vals[-2] > _TIE * vals[-1]):
                return f"matrix({w.n}x{w.n})"
            v = np.sqrt(vals[-1]) * vecs[:, -1]
        # The first entry within a relative _SIGN_TIE of the largest magnitude
        # is made positive: the solver's ties come out up to 6e-5 apart.
        a = np.abs(v)
        if v[np.argmax(a >= (1 - _SIGN_TIE) * a.max())] < 0:
            v = -v
        text = ", ".join(f"{x:.2f}".replace("-0.00", "0.00") for x in v)
        parts.append(f"{name}=({text})")
    return " ".join(parts)


def report_to_dict(r: ViolationReport) -> dict:
    """JSON-ready view of a report (matrices row-major). The certificate is
    _block_certificate of the witness, which attains bound."""
    X, P = _block_certificate(r.witness, r.partition)
    return {
        "partition": r.partition.text,
        "G": r.G,
        "sigma": r.sigma,
        "bound": r.bound,
        "s": r.s,
        "confidence": r.confidence,
        "witness": {"X": r.witness.X.tolist(), "P": r.witness.P.tolist()},
        "certificate": {"value": r.bound, "X": X.tolist(), "P": P.tolist()},
        "converged": r.converged,
    } | ({} if r.gap is None else {"gap": r.gap})


def reports_to_json(reports: Sequence[ViolationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports])


def reports_table(reports: Sequence[ViolationReport]) -> str:
    """One row per report, 5-decimal columns; the partition column fits every label."""
    wide = max([12] + [len(r.partition.text) for r in reports])
    header = (
        f"{'partition':<{wide}} {'G':>10} {'sigma':>10} {'bound':>10} "
        f"{'s':>10} {'confidence':>11}  witness"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        sig = "-" if r.sigma is None else f"{r.sigma:10.5f}"
        sv = "-" if r.s is None else f"{r.s:10.5f}"
        cv = "-" if r.confidence is None else f"{r.confidence:11.3e}"
        lines.append(
            f"{r.partition.text:<{wide}} {r.G:10.5f} {sig:>10} {r.bound:10.5f} "
            f"{sv:>10} {cv:>11}  {_describe_witness(r.witness)}"
        )
    return "\n".join(lines)
