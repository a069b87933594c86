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
from dataclasses import dataclass
from math import erfc, sqrt
from typing import Callable, Sequence

import numpy as np

from .bounds import (
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
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
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
    if s_level < 0:
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


def _rescale_to_C(
    X: np.ndarray, P: np.ndarray, s: CVState, C: float
) -> tuple[np.ndarray, np.ndarray]:
    G = float(np.sum(X * s.gamma_xx) + np.sum(P * s.gamma_pp))
    if not G > 0:
        raise ValueError("witness has nonpositive G; cannot normalize")
    return (C / G) * X, (C / G) * P


def _clip_psd(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    w = np.maximum(w, 0.0)
    out = (V * w) @ V.T
    return (out + out.T) / 2.0


def _project(
    X: np.ndarray, P: np.ndarray, s: CVState, C: float
) -> tuple[np.ndarray, np.ndarray]:
    return _rescale_to_C(_clip_psd(X), _clip_psd(P), s, C)


def _tangent(
    gX: np.ndarray, gP: np.ndarray, s: CVState
) -> tuple[np.ndarray, np.ndarray]:
    """Remove the gradient component along the normalization constraint."""
    gxx, gpp = s.gamma_xx, s.gamma_pp
    coef = float(np.sum(gX * gxx) + np.sum(gP * gpp)) / float(
        np.sum(gxx * gxx) + np.sum(gpp * gpp)
    )
    return gX - coef * gxx, gP - coef * gpp


def _random_pd_start(
    s: CVState, cfg: SearchConfig, stream: int
) -> tuple[np.ndarray, np.ndarray]:
    gen = _batch_rng(cfg.seed, stream)
    n = s.n
    R1 = gen.standard_normal((n, n))
    R2 = gen.standard_normal((n, n))
    X = R1.T @ R1 + 0.1 * np.eye(n)
    P = R2.T @ R2 + 0.1 * np.eye(n)
    return _rescale_to_C(X, P, s, cfg.C)


def optimize_witness(
    s: CVState,
    p: Partition,
    cfg: SearchConfig = SearchConfig(),
    *,
    max_iter: int = 2000,
    tol: float = 1e-10,
    callback: IterateCallback | None = None,
    no_error: bool = False,
) -> ViolationReport:
    """Minimize s_level*sigma(X,P) - B_I(X,P) over witnesses with G = C.

    Projected gradient descent: each step is eigenvalue-clipped onto the PSD
    cone and rescaled so the normalization holds exactly. The objective is
    convex, so a line-search stall certifies the constrained optimum. A value
    below -C at the optimum certifies non-p-separability at level s_level.
    With no_error=True (or no error model at s_level = 0) the sigma term is
    dropped and the report carries the raw margin only.
    """
    if no_error and cfg.s_level > 0:
        raise ValueError("no_error scoring requires s_level == 0")
    use_model = s.has_error_model and not no_error
    if cfg.s_level > 0:
        _require_model(s)
    if p.n != s.n:
        raise ValueError(f"state is {s.n}-mode but partition is over {p.n}")
    blocks = block_indices(p)
    if use_model:
        sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    else:
        sxx2 = spp2 = np.zeros((s.n, s.n))
    X, P = _random_pd_start(s, cfg, _OPT_STREAM)

    def objective(X: np.ndarray, P: np.ndarray) -> tuple[float, float]:
        sigma = float(np.sqrt(np.sum(X**2 * sxx2) + np.sum(P**2 * spp2)))
        bound, _, _ = partition_bound(X, P, blocks)
        return cfg.s_level * sigma - bound, sigma

    value, sigma = objective(X, P)
    step = 0.1
    streak = 0
    converged = False
    for it in range(1, max_iter + 1):
        if callback is not None:
            callback(it, X, P, value)
        bound, bX, bP = partition_bound(X, P, blocks, gradient=True)
        if sigma > 0:
            gX = cfg.s_level * X * sxx2 / sigma - bX
            gP = cfg.s_level * P * spp2 / sigma - bP
        else:
            gX, gP = -bX, -bP
        gX, gP = _tangent(gX, gP, s)
        gnorm2 = float(np.sum(gX * gX) + np.sum(gP * gP))
        if np.sqrt(gnorm2) < 1e-12:
            converged = True
            break
        t = step
        accepted = False
        while t > 1e-14:
            Xn, Pn = _project(X - t * gX, P - t * gP, s, cfg.C)
            vn, sn = objective(Xn, Pn)
            if vn <= value - 1e-4 * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True  # stall at the constrained optimum (convexity)
            break
        step = min(1.0, 2.0 * t)
        drop = value - vn
        streak = streak + 1 if drop <= tol * max(1.0, abs(value)) else 0
        X, P, value, sigma = Xn, Pn, vn, sn
        if streak >= 5:
            converged = True
            break

    final = WitnessPair(X, P)
    if use_model:
        report = violation_score(final, s, p)
    else:
        cert = separability_bound(final, p)
        report = ViolationReport(
            p, evaluate_G(final, s), None, cert.value, None, None, final, cert
        )
    if not converged:
        report = ViolationReport(
            report.partition,
            report.G,
            report.sigma,
            report.bound,
            report.s,
            report.confidence,
            report.witness,
            report.certificate,
            converged=False,
        )
    return report


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
    bips = bipartitions(s.n)
    blocks_of = [block_indices(p) for p in bips]
    sxx2, spp2 = s.sigma_xx**2, s.sigma_pp**2
    gxx, gpp = s.gamma_xx, s.gamma_pp
    target = cfg.s_level

    def scores(X: np.ndarray, P: np.ndarray) -> np.ndarray | None:
        G = float(np.sum(X * gxx) + np.sum(P * gpp))
        sigma = float(np.sqrt(np.sum(X**2 * sxx2) + np.sum(P**2 * spp2)))
        if sigma <= 0:
            return None
        return np.array(
            [
                (partition_bound(X, P, blocks)[0] - G) / sigma
                for blocks in blocks_of
            ]
        )

    best_min = -np.inf
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    success = False
    for attempt in range(restarts + 1):
        if attempt == 0 and start is not None:
            X, P = _rescale_to_C(start.X, start.P, s, cfg.C)
        else:
            X, P = _random_pd_start(s, cfg, _GENUINE_STREAM + attempt)
        cur = scores(X, P)
        if cur is None:
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
            active = 0
            for k, blocks in enumerate(blocks_of):
                if cur[k] >= low + 0.2:
                    continue
                bval, bX, bP = partition_bound(X, P, blocks, gradient=True)
                gX += (bX - gxx) / sigma - (bval - G) * dsX / sigma**2
                gP += (bP - gpp) / sigma - (bval - G) * dsP / sigma**2
                active += 1
            gX /= active
            gP /= active
            t = 0.1
            accepted = False
            while t > 1e-12:
                Xn, Pn = _project(X + t * gX, P + t * gP, s, cfg.C)
                nxt = scores(Xn, Pn)
                if nxt is not None and float(nxt.min()) > low:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break  # conflicting gradients: restart
            X, P, cur = Xn, Pn, nxt
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
        if vals[-1] <= 0 or vals[-2] > 1e-8 * vals[-1]:
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
