"""Error-aware entanglement certification.

Measured covariances come with per-element standard deviations, so a witness
value G is only trusted up to sigma(X, P). A partition is refuted at level s
when G + s*sigma still falls below the separability bound B_I. This module
scores witnesses, converts levels to confidences, and finds violating
witnesses: random rank-one sampling, and the exact optimum per partition or
for genuine multipartite entanglement from one convex program (see _lift).
The optimum comes with the solver's duality gap, and the seed does not
change it.
"""
from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import erfc, isfinite, sqrt
from typing import Sequence

import numpy as np

from . import sdp
from .bounds import (
    BoundResult,
    WitnessPair,
    block_indices,
    evaluate_G,
    rank_one_bound,
    separability_bound,
)
from .partitions import Partition, bipartitions
from .states import CVState

_BATCH = 65536
_PROBE = 64  # top trials per batch that set its pruning threshold


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


@dataclass(frozen=True)
class SearchConfig:
    """Shared knobs for the witness searches."""

    trials: int = 10**6
    seed: int = 0
    s_level: float = 6.0
    C: float = 1.0
    distribution: str = "normal"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.s_level >= 0:
            raise ValueError(f"s_level must be >= 0, got {self.s_level}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if not (self.C > 0 and isfinite(self.C)):
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if self.distribution not in ("normal", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


def _require_model(s: CVState) -> None:
    if not s.has_error_model:
        raise MissingErrorModel(
            f"state {s.label or '<unnamed>'} has no sigma_xx/sigma_pp blocks"
        )


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
    if not s_level >= 0:
        raise ValueError(f"s_level must be >= 0, got {s_level}")
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
    conf = erfc(score / sqrt(2.0)) if score >= 0 else 1.0
    return ViolationReport(p, G, sigma, cert.value, score, conf, w, cert)


def _margin_report(w: WitnessPair, s: CVState, p: Partition) -> ViolationReport:
    """Scorecard without the error model: the raw margin only."""
    cert = separability_bound(w, p)
    return ViolationReport(p, evaluate_G(w, s), None, cert.value, None, None, w, cert)


def rounding_bound(w: WitnessPair, s: CVState) -> float:
    """Bound on the rounding error of a computed margin B_I - G.

    G and each block's eigenvalue sum are sums of at most n^2 products, so
    their errors are a modest multiple of n eps (|X| |gamma_xx| + |P|
    |gamma_pp|), Frobenius norms; the factor 64 covers the eigensolver.
    """
    x, p = np.linalg.norm(w.X), np.linalg.norm(w.P)
    scale = x * np.linalg.norm(s.gamma_xx) + p * np.linalg.norm(s.gamma_pp)
    return float(64 * w.n * np.finfo(float).eps * scale)


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def _batch_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quad(V: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row-wise quadratic forms v_t^T A v_t.

    Two two-operand einsums: unlike a matmul, they start no BLAS threads,
    which would pile onto the search's own thread pool.
    """
    return np.einsum("tj,tj->t", np.einsum("ti,ij->tj", V, A), V)


def _trial_bound(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per row, sum_i |h_i g_i| (1 + 1e-12): see random_rank_one_search."""
    return np.abs(H * G).sum(axis=1) * (1 + 1e-12)


def random_rank_one_search(
    s: CVState,
    p: Partition | Sequence[Partition],
    cfg: SearchConfig = SearchConfig(),
    *,
    threads: int | None = None,
    no_error: bool = False,
) -> ViolationReport | list[ViolationReport]:
    """Best violation over cfg.trials random rank-one witnesses X=hh^T, P=gg^T.

    p is one partition, which returns one report, or a sequence of
    partitions, which returns one report per partition in that order. One
    set of trials scores every partition: trials are drawn in fixed
    65536-trial batches, each from its own counter-based stream keyed by
    (seed, batch), and each batch computes its draws, G and sigma once; only
    the closed-form rank-one bound (block sums of h*g) is partition-specific.
    The results therefore equal those of separate calls, one per partition.
    The merge takes, per partition, the maximal score with the lowest global
    trial index on ties, so the result is identical for any thread count.
    Each winner is rescored through separability_bound. With no_error=True
    the error model is ignored and trials are ranked by the raw margin
    B_I - G instead of the significance level.

    A partition is scored only on the trials whose bound u_t, the score with
    S_t = sum_i |h_i g_i| (1 + 1e-12) in place of B_I (_trial_bound), reaches
    theta: the smallest over partitions of the best score on the _PROBE
    trials of largest u. Proof that the computed u_t is at least every
    computed score of trial t: |sum_b h_i g_i| <= sum_b |h_i g_i|, so exact
    S bounds every exact B_I; float sums of n terms keep the computed B_I
    below S (1 + 2n eps) and the computed S above S (1 - n eps), a gap the
    slack covers up to n = 1000; subtracting G and dividing by sigma round
    monotonically. So each winner, scoring at least theta, is among the
    trials scored, which stay in index order for ties.
    """
    single = isinstance(p, Partition)
    parts = [p] if single else list(p)
    if not no_error:
        _require_model(s)
    n = s.n
    for q in parts:
        if q.n != n:
            raise ValueError(f"state is {n}-mode but partition is over {q.n}")
    batches = range((cfg.trials + _BATCH - 1) // _BATCH)
    workers = min(_resolve_threads(threads), len(batches))
    if not parts:
        return []
    gxx, gpp = s.gamma_xx, s.gamma_pp
    if not no_error:
        sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2

    def run_batch(b: int) -> list[tuple[float, int, np.ndarray, np.ndarray]]:
        size = min(_BATCH, cfg.trials - b * _BATCH)
        gen = _batch_rng(cfg.seed, b)
        if cfg.distribution == "normal":
            Z = gen.standard_normal((size, 2 * n))
        else:
            Z = gen.uniform(-1.0, 1.0, (size, 2 * n))
        H, G_ = Z[:, :n], Z[:, n:]
        gval = _quad(H, gxx) + _quad(G_, gpp)
        if not no_error:
            H2, G2 = H**2, G_**2
            var = _quad(H2, sxx2) + _quad(G2, spp2)
            del H2, G2
            ok = var > 0
            scale = np.sqrt(np.where(ok, var, 1.0))

        def score(bound, rows):
            m = bound - gval[rows]
            return m if no_error else np.where(ok[rows], m / scale[rows], -np.inf)

        def rank_one(q, rows):
            return score(rank_one_bound(H[rows], G_[rows], q), rows)

        upper = score(_trial_bound(H, G_), slice(None))
        probe = np.argpartition(upper, size - min(_PROBE, size))[-_PROBE:]
        theta = min(rank_one(q, probe).max() for q in parts)
        cand = np.flatnonzero(upper >= theta)
        best = []
        for q in parts:
            sc = rank_one(q, cand)
            k = int(cand[np.argmax(sc)])  # first maximum: lowest trial index
            best.append((float(sc.max()), b * _BATCH + k, H[k].copy(), G_[k].copy()))
        return best

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
        win = WitnessPair(np.outer(h, h), np.outer(g, g))
        report = _margin_report(win, s, q) if no_error else violation_score(win, s, q)
        reports.append(report)
    return reports[0] if single else reports


_NONPOSITIVE_G = "witness has nonpositive G; cannot normalize"


def _lift(
    s: CVState, cuts: Sequence[Partition], shared: bool, score: bool, C: float
) -> list[tuple[WitnessPair, float, bool]]:
    """Solve the lifted SDP: one (witness at G = C, gap, converged) per copy.

    B(X_bb, P_bb) = max{tr Y : [[X_bb, Y], [Y^T, P_bb]] PSD}, so one Y per
    block makes B_I linear, with X, P PSD. shared=True gives one witness for
    all cuts, otherwise one copy per cut. Margin mode maximizes
    sum_b tr Y_b - C subject to G <= C. Score mode maximizes t subject to
    sigma(X, P) <= 1 (an arrow LMI) and sum_b tr Y_Ib - G >= t for every cut
    I of the copy. The score is scale invariant, so t is the best min_I s_I
    if that is positive; else t = 0 and the witness only shows s <= 0. Each
    cut's Y, or each copy of its own, is one group of the solver.
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
        _require_model(s)
        sd = np.sqrt(twice) * np.concatenate([s.sigma_xx[iu], s.sigma_pp[iu]])
        eps = 0.5 / max(float(np.linalg.norm(sd * diag)), 0.5)  # sigma <= 1/2
    else:
        trace = float(gam @ diag)  # tr gxx + tr gpp
        if not trace > 0:
            raise ValueError(_NONPOSITIVE_G)
        eps = 0.5 * C / trace  # G = C/2
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
            block(C, XP, 0 * XP, 0 * XP, -gam)
        for j, q in enumerate(members):
            terms = [(XP, -gam), (t, -np.ones(t.size))]
            for idx in block_indices(q):
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
        X, P = np.zeros((2, n, n))
        X[iu], P[iu] = xp[:nt], xp[nt:]
        X, P = (C / G) * (X + np.triu(X, 1).T), (C / G) * (P + np.triu(P, 1).T)
        gap = abs(dual - float(b[v0:v1] @ sol.y[v0:v1]))
        out.append((WitnessPair(X, P), gap, sol.converged))
    return out


def optimize_witness(
    s: CVState,
    p: Partition | Sequence[Partition],
    cfg: SearchConfig = SearchConfig(),
    *,
    no_error: bool = False,
) -> ViolationReport | list[ViolationReport]:
    """The optimal witness for each partition, with its duality gap.

    With an error model (and no_error=False) it maximizes the score
    s = (B_I - G)/sigma, otherwise the raw margin B_I - G at G = C (the
    report then carries the margin only). The witness is rescaled to G = C
    and rescored through violation_score or separability_bound; the gap says
    how far from the optimum it can be. s_level > 0 needs an error model and
    no_error=True needs s_level = 0. p is one partition (one report) or a
    sequence (one report each, in order, each with its own witness).
    """
    single = isinstance(p, Partition)
    parts = [p] if single else list(p)
    if no_error and cfg.s_level > 0:
        raise ValueError("no_error scoring requires s_level == 0")
    if cfg.s_level > 0:
        _require_model(s)
    for q in parts:
        if q.n != s.n:
            raise ValueError(f"state is {s.n}-mode but partition is over {q.n}")
    if not parts:
        return []
    score = s.has_error_model and not no_error
    reports = []
    for q, (w, gap, ok) in zip(parts, _lift(s, parts, False, score, cfg.C)):
        report = violation_score(w, s, q) if score else _margin_report(w, s, q)
        reports.append(replace(report, converged=ok, gap=gap))
    return reports[0] if single else reports


def genuine_search(
    s: CVState, cfg: SearchConfig = SearchConfig()
) -> tuple[bool, WitnessPair, list[ViolationReport]]:
    """The witness with the largest min over bipartitions I of s_I.

    One SDP in score mode over every bipartition with one shared witness
    (see _lift); FOUND when every rescored s_I reaches cfg.s_level. The
    result does not depend on cfg.seed, and each report carries the gap.
    """
    _require_model(s)
    if s.n < 3:
        raise ValueError(f"genuine search needs n >= 3, got {s.n}")
    bips = bipartitions(s.n)
    ((witness, gap, ok),) = _lift(s, bips, True, True, cfg.C)
    reports = [
        replace(violation_score(witness, s, q), converged=ok, gap=gap) for q in bips
    ]
    return all(r.s >= cfg.s_level for r in reports), witness, reports


def _describe_witness(w: WitnessPair) -> str:
    """Rank-one witnesses shown by their vectors, others by shape."""
    parts = []
    for name, M in (("h", w.X), ("g", w.P)):
        vals, vecs = np.linalg.eigh(M)
        if vals[-1] <= 0 or (w.n > 1 and vals[-2] > 1e-8 * vals[-1]):
            return f"matrix({w.n}x{w.n})"
        v = np.sqrt(vals[-1]) * vecs[:, -1]
        if v[np.argmax(np.abs(v))] < 0:
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
    """Fixed-width text table, one row per report, 5-decimal columns."""
    header = (
        f"{'partition':<12} {'G':>10} {'sigma':>10} {'bound':>10} "
        f"{'s':>10} {'confidence':>11}  witness"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        sig = "-" if r.sigma is None else f"{r.sigma:10.5f}"
        sv = "-" if r.s is None else f"{r.s:10.5f}"
        cv = "-" if r.confidence is None else f"{r.confidence:11.3e}"
        lines.append(
            f"{r.partition.text:<12} {r.G:10.5f} {sig:>10} {r.bound:10.5f} "
            f"{sv:>10} {cv:>11}  {_describe_witness(r.witness)}"
        )
    return "\n".join(lines)
