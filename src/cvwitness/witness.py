"""Error-aware entanglement certification.

Measured covariances come with per-element standard deviations, so a witness
value G is only trusted up to sigma(X, P). A partition is refuted at level s
when G + s*sigma still falls below the separability bound B_I. This module
scores witnesses, converts levels to confidences, and searches for violating
witnesses: random rank-one sampling, convex single-partition optimization,
and a multi-bipartition descent for genuine multipartite entanglement.
"""
from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import erfc, isfinite, sqrt
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    BlockPlan,
    BoundResult,
    WitnessPair,
    block_indices,
    evaluate_G,
    partition_bound,
    separability_bound,
)
from .partitions import Partition, bipartitions
from .states import CVState

_BATCH = 65536
# Disjoint Philox stream ids: random-search batches use indices < 2^40.
_OPT_STREAM = 2**63
_GENUINE_STREAM = 2**62

IterateCallback = Callable[[int, np.ndarray, np.ndarray, float], None]


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


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
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
    """
    single = isinstance(p, Partition)
    parts = [p] if single else list(p)
    if not no_error:
        _require_model(s)
    n = s.n
    for q in parts:
        if q.n != n:
            raise ValueError(f"state is {n}-mode but partition is over {q.n}")
    workers = _resolve_threads(threads)
    if not parts:
        return []
    blocks_of = [block_indices(q) for q in parts]
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
        prod = H * G_
        gval = _quad(H, gxx) + _quad(G_, gpp)
        if not no_error:
            H2, G2 = H**2, G_**2
            var = _quad(H2, sxx2) + _quad(G2, spp2)
            del H2, G2
            ok = var > 0
            scale = np.sqrt(np.where(ok, var, 1.0))
        best = []
        for blocks in blocks_of:
            bound = np.zeros(size)
            for idx in blocks:
                bound += np.abs(prod[:, idx].sum(axis=1))
            if no_error:
                score = bound - gval
            else:
                score = np.where(ok, (bound - gval) / scale, -np.inf)
            k = int(np.argmax(score))
            best.append((float(score[k]), b * _BATCH + k, H[k].copy(), G_[k].copy()))
        return best

    batches = range((cfg.trials + _BATCH - 1) // _BATCH)
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
        if no_error:
            cert = separability_bound(win, q)
            reports.append(
                ViolationReport(
                    q, evaluate_G(win, s), None, cert.value, None, None, win, cert
                )
            )
        else:
            reports.append(violation_score(win, s, q))
    return reports[0] if single else reports


_NONPOSITIVE_G = "witness has nonpositive G; cannot normalize"


def _rescale_to_C(
    X: np.ndarray, P: np.ndarray, s: CVState, C: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale each pair of two (m, n, n) stacks to G = C.

    Returns (X, P, ok); a pair with G <= 0 cannot be normalized, so ok is
    False there and that pair is meaningless.
    """
    G = np.sum(X * s.gamma_xx, axis=(1, 2)) + np.sum(P * s.gamma_pp, axis=(1, 2))
    ok = G > 0
    f = (C / np.where(ok, G, 1.0))[:, None, None]
    return f * X, f * P, ok


def _normalized(
    X: np.ndarray, P: np.ndarray, s: CVState, C: float
) -> tuple[np.ndarray, np.ndarray]:
    (X,), (P,), (ok,) = _rescale_to_C(X[None], P[None], s, C)
    if not ok:
        raise ValueError(_NONPOSITIVE_G)
    return X, P


def _project(
    X: np.ndarray, P: np.ndarray, s: CVState, C: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip each pair of two (m, n, n) stacks onto the PSD cone (one stacked
    eigh for both), then rescale as _rescale_to_C does."""
    A = np.concatenate([X, P])
    w, V = np.linalg.eigh((A + A.transpose(0, 2, 1)) / 2.0)
    out = (V * np.maximum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
    out = (out + out.transpose(0, 2, 1)) / 2.0
    return _rescale_to_C(out[: len(X)], out[len(X) :], s, C)


def _tangent(
    gX: np.ndarray, gP: np.ndarray, s: CVState
) -> tuple[np.ndarray, np.ndarray]:
    """Remove from each gradient of two (m, n, n) stacks its component along
    the normalization constraint."""
    gxx, gpp = s.gamma_xx, s.gamma_pp
    coef = (np.sum(gX * gxx, axis=(1, 2)) + np.sum(gP * gpp, axis=(1, 2))) / float(
        np.sum(gxx * gxx) + np.sum(gpp * gpp)
    )
    coef = coef[:, None, None]
    return gX - coef * gxx, gP - coef * gpp


def _backtrack(
    t0: np.ndarray,
    floor: float,
    trial: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, tuple]],
) -> list:
    """Backtracking line search on several lanes at once.

    Lane i tries the steps t0[i], t0[i]/2, t0[i]/4, ... while they stay
    above floor and stops at the first candidate trial marks, exactly as a
    loop halving one step at a time would (halving is exact). The ladders
    are evaluated in chunks of 1, 2, 4, ... steps per lane, one trial call
    per chunk for every lane still searching. trial(lane, t) scores the
    candidates lane[c] at step t[c] and returns (stop, payload), payload
    being a tuple of arrays indexed by candidate. Returns, per lane, None
    when its ladder ran out, otherwise (t, payload row) of its stop.
    """
    found = [None] * len(t0)
    lanes = np.arange(len(t0))
    first, size = 0, 1
    while lanes.size:
        t = np.ldexp(t0[lanes, None], -np.arange(first, first + size))
        live = t > floor
        rows, cols = np.nonzero(live)
        if not rows.size:
            break
        lane = lanes[rows]
        stop, payload = trial(lane, t[rows, cols])
        for c in np.flatnonzero(stop)[::-1]:  # the first stop of a lane wins
            found[lane[c]] = (t[rows[c], cols[c]], tuple(a[c] for a in payload))
        keep = [i for i, j in enumerate(lanes) if found[j] is None and live[i, -1]]
        lanes = lanes[keep]
        first, size = first + size, 2 * size
    return found


def _random_pd_start(
    s: CVState, cfg: SearchConfig, stream: int
) -> tuple[np.ndarray, np.ndarray]:
    gen = _batch_rng(cfg.seed, stream)
    n = s.n
    R1 = gen.standard_normal((n, n))
    R2 = gen.standard_normal((n, n))
    X = R1.T @ R1 + 0.1 * np.eye(n)
    P = R2.T @ R2 + 0.1 * np.eye(n)
    return _normalized(X, P, s, cfg.C)


def optimize_witness(
    s: CVState,
    p: Partition | Sequence[Partition],
    cfg: SearchConfig = SearchConfig(),
    *,
    max_iter: int = 2000,
    tol: float = 1e-10,
    callback: IterateCallback | None = None,
    no_error: bool = False,
) -> ViolationReport | list[ViolationReport]:
    """Minimize s_level*sigma(X,P) - B_I(X,P) over witnesses with G = C.

    Projected gradient descent: each step is eigenvalue-clipped onto the PSD
    cone and rescaled so the normalization holds exactly, with a
    backtracking line search. The descent stops when the projected gradient
    vanishes, when no step above 1e-14 decreases the objective enough, or
    after five steps in a row that barely lowered it. converged=True records
    one of these stops and does not certify the constrained optimum: the
    clip-then-rescale step is not a projection onto the feasible set and
    B_I is not smooth at rank-deficient blocks, so a stall can sit well
    short of it. A value below -C certifies non-p-separability at level
    s_level. With no_error=True (or no error model at s_level = 0) the sigma
    term is dropped and the report carries the raw margin only.

    p is one partition, which returns one report, or a sequence of
    partitions, which returns one report per partition in that order. The
    descents of a sequence start from the same point and run in lockstep:
    each iteration takes one gradient call over the partitions still
    running and evaluates their line searches together, so each report
    equals that of a call on its partition alone. The callback sees
    (iteration, X, P, value) once per running partition and iteration, in
    partition order.
    """
    single = isinstance(p, Partition)
    parts = [p] if single else list(p)
    if no_error and cfg.s_level > 0:
        raise ValueError("no_error scoring requires s_level == 0")
    use_model = s.has_error_model and not no_error
    if cfg.s_level > 0:
        _require_model(s)
    for q in parts:
        if q.n != s.n:
            raise ValueError(f"state is {s.n}-mode but partition is over {q.n}")
    if not parts:
        return []
    plan = BlockPlan(parts)
    if use_model:
        sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    else:
        sxx2 = spp2 = np.zeros((s.n, s.n))

    def objective(X, P, which):
        sigma = np.sqrt(
            np.sum(X**2 * sxx2, axis=(1, 2)) + np.sum(P**2 * spp2, axis=(1, 2))
        )
        bound = partition_bound(X, P, plan, which)[0]
        return cfg.s_level * sigma - bound, sigma

    def trial(lane, t):
        # Steps down from the running iterates Xr, Pr along gX, gP.
        tt = t[:, None, None]
        Xn, Pn, ok = _project(
            Xr[lane] - tt * gX[lane], Pr[lane] - tt * gP[lane], s, cfg.C
        )
        vn, sn = objective(Xn, Pn, r[lane])
        accept = vn <= value[r[lane]] - 1e-4 * t * gnorm2[lane]
        return ~ok | accept, (Xn, Pn, vn, sn, ok)

    m = len(parts)
    X0, P0 = _random_pd_start(s, cfg, _OPT_STREAM)
    X, P = [X0] * m, [P0] * m
    value, sigma = objective(np.stack(X), np.stack(P), np.arange(m))
    step = np.full(m, 0.1)
    streak = [0] * m
    converged = [False] * m
    running = list(range(m))
    for it in range(1, max_iter + 1):
        if not running:
            break
        if callback is not None:
            for j in running:
                callback(it, X[j], P[j], float(value[j]))
        r = np.array(running)
        Xr, Pr = np.stack([X[j] for j in r]), np.stack([P[j] for j in r])
        _, bX, bP = partition_bound(Xr, Pr, plan, r, gradient=True)
        sig = sigma[r][:, None, None]
        pos = sig > 0
        div = np.where(pos, sig, 1.0)
        gX = np.where(pos, cfg.s_level * Xr * sxx2 / div - bX, -bX)
        gP = np.where(pos, cfg.s_level * Pr * spp2 / div - bP, -bP)
        gX, gP = _tangent(gX, gP, s)
        gnorm2 = np.sum(gX * gX, axis=(1, 2)) + np.sum(gP * gP, axis=(1, 2))
        flat = np.sqrt(gnorm2) < 1e-12
        for j in r[flat]:
            converged[j] = True
        r, Xr, Pr, gX, gP, gnorm2 = (a[~flat] for a in (r, Xr, Pr, gX, gP, gnorm2))

        for j, found in zip(r, _backtrack(step[r], 1e-14, trial)):
            if found is None:
                converged[j] = True  # no step above the floor helps
                continue
            t, (Xn, Pn, vn, sn, ok) = found
            if not ok:
                raise ValueError(_NONPOSITIVE_G)
            step[j] = min(1.0, 2.0 * t)
            drop = value[j] - vn
            small = drop <= tol * max(1.0, abs(value[j]))
            streak[j] = streak[j] + 1 if small else 0
            X[j], P[j], value[j], sigma[j] = Xn, Pn, vn, sn
            if streak[j] >= 5:
                converged[j] = True
        running = [j for j in running if not converged[j]]

    reports = []
    for j, q in enumerate(parts):
        final = WitnessPair(X[j], P[j])
        if use_model:
            report = violation_score(final, s, q)
        else:
            cert = separability_bound(final, q)
            report = ViolationReport(
                q, evaluate_G(final, s), None, cert.value, None, None, final, cert
            )
        reports.append(report if converged[j] else replace(report, converged=False))
    return reports[0] if single else reports


def genuine_search(
    s: CVState,
    cfg: SearchConfig = SearchConfig(),
    *,
    start: WitnessPair | None = None,
    restarts: int = 200,
    max_iter: int = 300,
    callback: IterateCallback | None = None,
) -> tuple[bool, WitnessPair, list[ViolationReport]]:
    """Seek one witness violating every bipartition at level cfg.s_level.

    Works on the scores s_I = (B_I - G)/sigma directly (driving every E_I =
    G + s_level*sigma - B_I negative is the same as driving every s_I above
    s_level, and the scores are scale invariant). Each step averages the
    score gradients over the currently worst bipartitions (those within 0.2
    of the minimum; gradients of comfortably satisfied conditions would
    drown out the binding ones) and backtracks until the minimum score
    strictly improves. When no step helps, the gradients are in conflict and
    the search restarts from a fresh random PD pair. The returned reports
    recompute every score independently of the search bookkeeping.
    """
    _require_model(s)
    if s.n < 3:
        raise ValueError(f"genuine search needs n >= 3, got {s.n}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    bips = bipartitions(s.n)
    plan = BlockPlan(bips)
    sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    gxx, gpp = s.gamma_xx, s.gamma_pp
    target = cfg.s_level

    def scores(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Scores of each witness of two (m, n, n) stacks against every
        # bipartition; ok is False where sigma vanishes (scores undefined).
        G = np.sum(X * gxx, axis=(1, 2)) + np.sum(P * gpp, axis=(1, 2))
        sigma = np.sqrt(
            np.sum(X**2 * sxx2, axis=(1, 2)) + np.sum(P**2 * spp2, axis=(1, 2))
        )
        ok = sigma > 0
        values = partition_bound(X, P, plan)[0]
        return (values - G[:, None]) / np.where(ok, sigma, 1.0)[:, None], ok

    def trial(lane, t):
        # Steps up from the current iterate (X, P) along (gX, gP).
        tt = t[:, None, None]
        Xn, Pn, ok = _project(X + tt * gX, P + tt * gP, s, cfg.C)
        nxt, defined = scores(Xn, Pn)
        return ~ok | (defined & (nxt.min(axis=1) > low)), (Xn, Pn, nxt, ok)

    best_min = -np.inf
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    success = False
    for attempt in range(restarts + 1):
        if attempt == 0 and start is not None:
            X, P = _normalized(start.X, start.P, s, cfg.C)
        else:
            X, P = _random_pd_start(s, cfg, _GENUINE_STREAM + attempt)
        (cur,), (defined,) = scores(X[None], P[None])
        if not defined:
            continue
        for it in range(max_iter):
            low = float(cur.min())
            if callback is not None:
                callback(it, X, P, low)
            if low > best_min:
                best_min = low
                best_pair = (X.copy(), P.copy())
            if low >= target:
                success = True
                break
            G = float(np.sum(X * gxx) + np.sum(P * gpp))
            sigma = float(np.sqrt(np.sum(X**2 * sxx2) + np.sum(P**2 * spp2)))
            dsX = X * sxx2 / sigma
            dsP = P * spp2 / sigma
            gX = np.zeros_like(X)
            gP = np.zeros_like(P)
            active = np.flatnonzero(cur < low + 0.2)
            bvals, bX, bP = partition_bound(X, P, plan, gradient=True)
            for k in active:
                gX += (bX[k] - gxx) / sigma - (bvals[k] - G) * dsX / sigma**2
                gP += (bP[k] - gpp) / sigma - (bvals[k] - G) * dsP / sigma**2
            gX /= active.size
            gP /= active.size
            (hit,) = _backtrack(np.array([0.1]), 1e-12, trial)
            if hit is None:
                break  # conflicting gradients: restart
            _, (X, P, cur, ok) = hit
            if not ok:
                raise ValueError(_NONPOSITIVE_G)
        if success:
            break

    if best_pair is not None:
        X, P = best_pair
    witness = WitnessPair(X, P)
    reports = [violation_score(witness, s, p) for p in bips]
    found = success and all(
        r.s is not None and r.s >= target - 1e-6 for r in reports
    )
    return found, witness, reports


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
    }


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
