"""Error-aware entanglement certification.

Measured covariances come with per-element standard deviations, so a witness
value G is only trusted up to sigma(X, P). A partition is refuted at level s
when G + s*sigma still falls below the separability bound B_I. This module
scores witnesses, converts levels to confidences, and finds violating
witnesses: random rank-one sampling, and the exact optimum per partition or
for genuine multipartite entanglement from one convex program (see _lift).
The optimum comes with the solver's duality gap, and the seed does not
change it. Every search ends in _report, which rescores its winner, and
in _certified, the one rule for whether a report certifies.
"""
from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import erfc, sqrt
from typing import Sequence

import numpy as np

from . import sdp
from .bounds import BoundResult, WitnessPair, evaluate_G, rank_one_bound
from .bounds import separability_bound
from .partitions import Partition, _partition_list, bipartitions
from .states import CVState, is_physical

_BATCH = 65536
_PROBE = 64  # top trials per batch that set its pruning threshold
_TILE = 4096  # trials per transposed tile of G, sigma and the trial bound


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
    certificate: BoundResult
    converged: bool = True
    gap: float | None = None  # duality gap of the solver; None off the solver


def _at_least(name: str, value, low) -> None:
    """Refuse value below low, or NaN, with a message naming it."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_seed(seed: int) -> None:
    """Refuse a seed that cannot key the Philox trial streams."""
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
    return evaluate_G(w, s) + s_level * sigma - separability_bound(w, p).value


def confidence(s: float) -> float:
    """Probability that noise alone produced a violation at level s."""
    if s < 0:
        warnings.warn("negative violation level; confidence clamped to 1")
        return 1.0
    return erfc(s / sqrt(2.0))


def violation_score(w: WitnessPair, s: CVState, p: Partition) -> ViolationReport:
    """Score a witness: s = (B_I - G)/sigma plus the full certificate."""
    sigma = measurement_sigma(w, s)
    if sigma <= 0.0:
        raise ZeroSigma("sigma(X, P) = 0; violation score undefined")
    cert = separability_bound(w, p)
    G = evaluate_G(w, s)
    score = (cert.value - G) / sigma
    conf = confidence(score) if score >= 0 else 1.0
    return ViolationReport(p, G, sigma, cert.value, score, conf, w, cert)


def _report(w: WitnessPair, s: CVState, p: Partition, score: bool, **solver):
    """Rescore a search's winner: through violation_score when score is set,
    else by the raw margin only. solver holds the converged and gap fields."""
    if score:
        return replace(violation_score(w, s, p), **solver)
    cert = separability_bound(w, p)
    G = evaluate_G(w, s)
    return ViolationReport(p, G, None, cert.value, None, None, w, cert, **solver)


def rounding_bound(w: WitnessPair, s: CVState) -> float:
    """Bound on the rounding error of a computed margin B_I - G.

    G and each block's eigenvalue sum are sums of at most n^2 products, so
    their errors are a modest multiple of n eps (|X| |gamma_xx| + |P|
    |gamma_pp|), Frobenius norms; the factor 64 covers the eigensolver.
    """
    x, p = np.linalg.norm(w.X), np.linalg.norm(w.P)
    scale = x * np.linalg.norm(s.gamma_xx) + p * np.linalg.norm(s.gamma_pp)
    return float(64 * w.n * np.finfo(float).eps * scale)


def _certified(
    r: ViolationReport, state: CVState, s_level: float, *, nu_min: float | None = None
) -> bool:
    """Whether a search report certifies. One block certifies nothing: B(X, P)
    bounds every physical state. A score must reach s_level, and its margin
    B_I - G beat its rounding bound, so at s_level = 0 a tie certifies
    nothing. A raw margin must beat the solver's duality gap (none for random
    witnesses), its own rounding bound, and (1/2 - nu_min)(tr X + tr P):
    nu_min is superadditive, so gamma + (1/2 - nu_min) I is physical, and a
    separable state that close moves G by at most that. nu_min defaults to
    is_physical(state)[1]."""
    if r.partition.k < 2:
        return False
    rounding = rounding_bound(r.witness, state)
    if r.s is None:
        if nu_min is None:
            nu_min = is_physical(state)[1]
        room = max(0.0, 0.5 - nu_min)
        room *= float(np.trace(r.witness.X) + np.trace(r.witness.P))
        return r.bound - r.G > (r.gap or 0.0) + rounding + room
    return r.s >= s_level and r.bound - r.G > rounding


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    _at_least("threads", threads, 1)
    return threads


def _batch_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quad(V: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Column-wise quadratic forms v_t^T A v_t of V laid out (n, t).

    Two two-operand einsums whose inner loops run along the t trials of
    contiguous rows; unlike a matmul, they start no BLAS threads, which
    would pile onto the search's own thread pool.
    """
    return np.einsum("it,it->t", np.einsum("ij,jt->it", A, V), V)


def _trial_bound(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per row, sum_i |h_i g_i| (1 + 1e-12): see random_rank_one_search."""
    return np.abs(H * G).sum(axis=1) * (1 + 1e-12)


def random_rank_one_search(
    s: CVState,
    p: Partition | Sequence[Partition],
    *,
    trials: int = 10**6,
    seed: int = 0,
    threads: int | None = None,
    no_error: bool = False,
) -> ViolationReport | list[ViolationReport]:
    """Best violation over trials random rank-one witnesses X=hh^T, P=gg^T.

    p is one partition (one report) or a sequence (one report each, in
    order). One set of trials, standard normal draws in 65536-trial batches
    from Philox streams keyed by (seed, batch), scores every partition, so
    results equal those of one call per partition. Ties go to the lowest
    trial index, whatever the thread count. Winners are rank-one
    WitnessPairs, whose bound is the closed form. With no_error=True trials
    are ranked by the raw margin B_I - G (sigma set to 1); otherwise an
    all-zero error model raises ZeroSigma at once.

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
    G, S and sigma take _TILE trials at a time and scores at most _BATCH,
    so a worker holds about one (65536, 2n) draw.
    """
    _at_least("trials", trials, 1)
    _check_seed(seed)
    if not no_error:
        _require_model(s, score=True)
    parts = _partition_list(p, s.n)
    n = s.n
    batches = range((trials + _BATCH - 1) // _BATCH)
    workers = min(_resolve_threads(threads), len(batches))
    if not parts:
        return []
    gxx, gpp = s.gamma_xx, s.gamma_pp
    if not no_error:
        sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2

    def run_batch(b: int) -> list[tuple[float, int, np.ndarray, np.ndarray]]:
        size = min(_BATCH, trials - b * _BATCH)
        Z = _batch_rng(seed, b).standard_normal((size, 2 * n))
        gval, margin = np.empty((2, size))
        for lo in range(0, size, _TILE):
            T, tile = Z[lo : lo + _TILE].T.copy(), slice(lo, lo + _TILE)
            gval[tile] = _quad(T[:n], gxx) + _quad(T[n:], gpp)
            margin[tile] = _trial_bound(T[:n].T, T[n:].T) - gval[tile]

        def sigma(rows):  # sigma^2 of rows, _TILE rows at a time
            var = np.ones(rows.size)
            for lo in range(0, 0 if no_error else rows.size, _TILE):
                T = Z[rows[lo : lo + _TILE]].T.copy()  # (2n, tile), contiguous
                np.square(T, out=T)
                var[lo : lo + _TILE] = _quad(T[:n], sxx2) + _quad(T[n:], spp2)
            return var

        def per_sigma(x, v):  # x / sigma, -inf where sigma is 0
            return np.where(v > 0, x / np.sqrt(np.where(v > 0, v, 1.0)), -np.inf)

        def best(rows, var, qs):
            """Per partition of qs: best score on rows, whose sigma^2 is var,
            and the first row reaching it."""
            top, at = np.full(len(qs), -np.inf), np.zeros(len(qs), dtype=int)
            step = max(1, _BATCH // len(qs))
            for lo in range(0, rows.size, step):
                r, v = rows[lo : lo + step], var[lo : lo + step]
                sc = per_sigma(rank_one_bound(Z[r, :n], Z[r, n:], qs) - gval[r], v)
                k = sc.argmax(axis=1)  # first maximum: lowest trial index
                val = sc[np.arange(len(qs)), k]
                up = val > top
                top[up], at[up] = val[up], r[k[up]]
            return top, at

        pos = np.flatnonzero(margin > 0)
        top, at = best(pos, sigma(pos), parts)
        fall = np.flatnonzero(~(top > 0))
        if fall.size:
            qs = [parts[j] for j in fall]
            var = sigma(np.arange(size))
            upper = per_sigma(margin, var)
            probe = np.argpartition(upper, size - min(_PROBE, size))[-_PROBE:]
            theta = best(probe, var[probe], qs)[0].min()
            cand = np.flatnonzero(upper >= theta)
            top[fall], at[fall] = best(cand, var[cand], qs)
        return list(zip(top.tolist(), (b * _BATCH + at).tolist(), Z[at, :n], Z[at, n:]))

    if workers == 1:
        results = [run_batch(b) for b in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_batch, batches))
    reports = []
    for j, q in enumerate(parts):
        score, _, h, g = max((r[j] for r in results), key=lambda r: (r[0], -r[1]))
        if score == -np.inf:
            raise ZeroSigma("every trial had zero sigma; check the error model")
        reports.append(_report(WitnessPair.rank_one(h, g), s, q, not no_error))
    return reports[0] if isinstance(p, Partition) else reports


_NONPOSITIVE_G = "witness has nonpositive G; cannot normalize"


def _lift(
    s: CVState, cuts: Sequence[Partition], shared: bool, score: bool
) -> list[tuple[WitnessPair, float, bool]]:
    """Solve the lifted SDP: one (witness at G = 1, gap, converged) per copy.

    B(X_bb, P_bb) = max{tr Y : [[X_bb, Y], [Y^T, P_bb]] PSD}, so one Y per
    block makes B_I linear, with X, P PSD. shared=True gives one witness for
    all cuts, otherwise one copy per cut. Margin mode maximizes
    sum_b tr Y_b - 1 subject to G <= 1. Score mode maximizes t subject to
    sigma(X, P) <= 1 (an arrow LMI) and sum_b tr Y_Ib - G >= t for every cut
    I of the copy. The score is scale invariant, so t is the best min_I s_I
    if that is positive; else t = 0 and the witness only shows s <= 0. Each
    cut's Y, or each copy of its own, is one group of the solver. Score mode
    raises ZeroSigma before solving when every sigma entry is 0.
    """
    n = s.n
    iu = np.triu_indices(n)
    nt = iu[0].size
    tri = np.zeros((n, n), dtype=int)
    tri[iu] = tri[iu[::-1]] = np.arange(nt)
    twice = np.tile(np.where(iu[0] == iu[1], 1.0, 2.0), 2)  # off-diagonals count twice
    gam = twice * np.concatenate([s.gamma_xx[iu], s.gamma_pp[iu]])
    diag = (twice == 1.0) * 1.0
    if score:
        _require_model(s, score=True)
        sd = np.sqrt(twice) * np.concatenate([s.sigma_xx[iu], s.sigma_pp[iu]])
        eps = 0.5 / max(float(np.linalg.norm(sd * diag)), 0.5)  # sigma <= 1/2
    else:
        trace = float(gam @ diag)  # tr gxx + tr gpp
        if not trace > 0:
            raise ValueError(_NONPOSITIVE_G)
        eps = 0.5 / trace  # G = 1/2
    gain, y0, group, blocks, spans = [], [], [], [], []

    def var(count, label, init=0.0, b=0.0):
        first = sum(map(len, gain))
        for out, value in ((gain, b), (y0, init), (group, label)):
            out.append(np.broadcast_to(value, (count,)))
        return np.arange(first, first + count)

    def block(F0, v, row, col, coef):
        blocks.append(sdp.Block(np.atleast_2d(F0), v, *map(np.asarray, (row, col, coef))))

    for c, members in enumerate([cuts] if shared else [[q] for q in cuts]):
        first = (sum(map(len, gain)), len(blocks))
        label = -1 if shared else c
        XP = var(2 * nt, label, eps * diag)
        t = var(1, label, -eps * float(gam @ diag) - 1.0, 1.0) if score else XP[:0]
        block(np.zeros((n, n)), XP[:nt], *iu, np.ones(nt))
        block(np.zeros((n, n)), XP[nt:], *iu, np.ones(nt))
        if score:
            arrow = np.arange(1, 2 * nt + 1)
            block(np.eye(2 * nt + 1), XP, 0 * arrow, arrow, sd)
        else:
            block(1.0, XP, 0 * XP, 0 * XP, -gam)
        for j, q in enumerate(members):
            terms = [(XP, -gam), (t, -np.ones(t.size))]
            for idx in q.indices:
                k = idx.size
                a, e = np.divmod(np.arange(k * k), k)
                Y = var(k * k, j if shared else c, 0.0, (a == e) * (not score))
                up = a <= e
                sub = tri[idx[a[up]], idx[e[up]]]
                v = np.concatenate([XP[sub], XP[nt + sub], Y])
                rows = np.concatenate([a[up], k + a[up], a])
                cols = np.concatenate([e[up], k + e[up], k + e])
                block(np.zeros((2 * k, 2 * k)), v, rows, cols, np.ones(v.size))
                terms.append((Y[a == e], np.ones(k)))
            if score:
                v, coef = map(np.concatenate, zip(*terms))
                block(0.0, v, 0 * v, 0 * v, coef)
        spans.append(first + (sum(map(len, gain)), len(blocks)))

    b = np.concatenate(gain)
    sol = sdp.solve(b, blocks, np.concatenate(y0), np.concatenate(group))
    out = []
    for v0, k0, v1, k1 in spans:
        dual = sum(float(np.sum(blocks[j].F0 * sol.W[j])) for j in range(k0, k1))
        xp = sol.y[v0 : v0 + 2 * nt]
        G = float(gam @ xp)
        if not G > 0:
            raise ValueError(_NONPOSITIVE_G)
        # (1/G) * xp rounds unlike xp / G, and saved reports carry its digits
        X, P = (1.0 / G) * xp[:nt][tri], (1.0 / G) * xp[nt:][tri]
        gap = abs(dual - float(b[v0:v1] @ sol.y[v0:v1]))
        out.append((WitnessPair(X, P), gap, sol.converged))
    return out


def optimize_witness(
    s: CVState,
    p: Partition | Sequence[Partition],
    *,
    no_error: bool = False,
) -> ViolationReport | list[ViolationReport]:
    """The optimal witness for each partition, with its duality gap.

    It maximizes the score s = (B_I - G)/sigma, which needs an error model
    (else MissingErrorModel), or with no_error=True the raw margin B_I - G
    (the report then carries the margin only). Witnesses come at G = 1: a
    score is scale invariant, and a margin is compared with the gap, which
    does not scale with the witness. Each is rescored through
    violation_score or separability_bound; the gap says how far from the
    optimum it can be. p is one partition (one report) or a sequence (one
    report each, in order, each with its own witness).
    """
    parts = _partition_list(p, s.n)
    if not parts:
        return []
    reports = [
        _report(w, s, q, not no_error, converged=ok, gap=gap)
        for q, (w, gap, ok) in zip(parts, _lift(s, parts, False, not no_error))
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
    ((witness, gap, ok),) = _lift(s, bips, True, True)
    reports = [_report(witness, s, q, True, converged=ok, gap=gap) for q in bips]
    return all(_certified(r, s, s_level) for r in reports), witness, reports


def _describe_witness(w: WitnessPair) -> str:
    """Rank-one witnesses shown by their vectors, others by shape."""
    parts = []
    for name, M, v in (("h", w.X, w.h), ("g", w.P, w.g)):
        if v is None:
            vals, vecs = np.linalg.eigh(M)
            if vals[-1] <= 0 or (w.n > 1 and vals[-2] > 1e-8 * vals[-1]):
                return f"matrix({w.n}x{w.n})"
            v = np.sqrt(vals[-1]) * vecs[:, -1]
        # The first entry within a relative 1e-6 of the largest magnitude is
        # made positive, so entries that tie up to rounding flip no sign.
        a = np.abs(v)
        if v[np.argmax(a >= (1 - 1e-6) * a.max())] < 0:
            v = -v
        parts.append(name + "=(" + ", ".join(f"{x:.2f}" for x in v) + ")")
    return " ".join(parts)


def report_to_dict(r: ViolationReport) -> dict:
    """JSON-ready view of a report (matrices row-major)."""
    return {
        "partition": r.partition.text,
        "G": r.G,
        "sigma": r.sigma,
        "bound": r.bound,
        "s": r.s,
        "confidence": r.confidence,
        "witness": {"X": r.witness.X.tolist(), "P": r.witness.P.tolist()},
        "certificate": {
            "value": r.certificate.value,
            "X": r.certificate.certificate_X.tolist(),
            "P": r.certificate.certificate_P.tolist(),
        },
        "converged": r.converged,
    } | ({} if r.gap is None else {"gap": r.gap})


def reports_to_json(reports: Sequence[ViolationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


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
