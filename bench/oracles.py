"""Checks of cvwitness outputs that share no code with the package.

B and B_I are recomputed as sums of per-block nuclear norms ||L_X^T L_P||_*
from Cholesky (or, for singular blocks, SVD) factors, physicality as
eig(gxx gpp) >= 1/4, and the sign-matrix LMI test is enumerated here again.
Each verifier takes an op's exit code, captured stdout and parsed --json
document and returns an Outcome: the problems found (empty when the op is
correct) and how many of the op's targets known to be entangled it certified.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

# Relative agreement required between a reported value and its recomputation.
REL_TOL = 1e-6
# Margin of a physicality or LMI eigenvalue inside which either verdict is
# accepted (printed data may sit on the boundary).
EDGE_TOL = 1e-7


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    certified: int = 0
    known: int = 0


@dataclass(frozen=True)
class State:
    """Covariance blocks as written to the program, plus what is known a priori.

    known: partitions (frozensets of blocks) and/or "genuine" that the state is
    entangled across; separable: the state is a product state, so nothing may
    ever be certified.
    """

    gxx: np.ndarray
    gpp: np.ndarray
    sxx: np.ndarray | None = None
    spp: np.ndarray | None = None
    known: frozenset = frozenset()
    separable: bool = False

    @property
    def n(self) -> int:
        return self.gxx.shape[0]


def key(blocks) -> frozenset:
    """Order-free form of a partition given as 1-based blocks."""
    return frozenset(frozenset(b) for b in blocks)


def parse(text: str) -> frozenset:
    """Partition text with single-digit labels, e.g. "2|134"."""
    return key([int(c) for c in group] for group in text.split("|"))


def bipartitions(n: int) -> list[frozenset]:
    modes = range(1, n + 1)
    return [
        key([sub, [i for i in modes if i not in sub]])
        for size in range(1, n)
        for sub in combinations(modes, size)
        if 1 in sub
    ]


def _zero_based(part: frozenset) -> list[list[int]]:
    return [sorted(i - 1 for i in b) for b in sorted(part, key=min)]


def _factor(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        U, s, _ = np.linalg.svd(M)
        return U * np.sqrt(s)


def block_bound(X: np.ndarray, P: np.ndarray, part: frozenset | None = None) -> float:
    """B_I(X, P): sum over blocks of the nuclear norm of L_X^T L_P."""
    blocks = [list(range(X.shape[0]))] if part is None else _zero_based(part)
    total = 0.0
    for b in blocks:
        ix = np.ix_(b, b)
        M = _factor(X[ix]).T @ _factor(P[ix])
        total += float(np.linalg.svd(M, compute_uv=False).sum())
    return total


def witness_G(X, P, s: State) -> float:
    return float(np.sum(X * s.gxx) + np.sum(P * s.gpp))


def witness_sigma(X, P, s: State) -> float:
    return float(np.sqrt(np.sum(X**2 * s.sxx**2) + np.sum(P**2 * s.spp**2)))


def min_symplectic(gxx: np.ndarray, gpp: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of diag(gxx, gpp): sqrt of min eig(gxx gpp)."""
    return float(np.sqrt(np.linalg.eigvals(gxx @ gpp).real.min()))


def pt_min_symplectic(s: State, part: frozenset) -> float:
    """min_symplectic after flipping the momenta of the block holding mode 1."""
    signs = np.ones(s.n)
    signs[_zero_based(part)[0]] = -1.0
    return min_symplectic(s.gxx, s.gpp * np.outer(signs, signs))


def lmi_min(s: State, part: frozenset) -> float:
    """Lowest eigenvalue of [[gxx, E/2], [E/2, gpp]] over block sign matrices E."""
    n = s.n
    blocks = _zero_based(part)
    lowest = np.inf
    for tail in product((1.0, -1.0), repeat=len(blocks) - 1):
        eps = np.empty(n)
        for b, sign in zip(blocks, (1.0,) + tail):
            eps[b] = sign
        M = np.block([[s.gxx, np.diag(eps / 2)], [np.diag(eps / 2), s.gpp]])
        lowest = min(lowest, float(np.linalg.eigvalsh(M)[0]))
    return lowest


def detected(s: State) -> frozenset:
    """Bipartitions a physical state is provably entangled across (NPT or LMI)."""
    return frozenset(
        p
        for p in bipartitions(s.n)
        if pt_min_symplectic(s, p) < 0.5 - EDGE_TOL or lmi_min(s, p) < -EDGE_TOL
    )


def _close(got, want: float, scale: float = 1.0) -> bool:
    return got is not None and abs(got - want) <= REL_TOL * max(1.0, abs(want), scale)


def _same_within_blocks(C, W, part: frozenset) -> bool:
    C = np.asarray(C)
    return all(
        np.array_equal(C[np.ix_(b, b)], W[np.ix_(b, b)]) for b in _zero_based(part)
    )


def _check_certificate(out: Outcome, name: str, cert: dict, X, P, part) -> None:
    cX, cP = np.asarray(cert["X"]), np.asarray(cert["P"])
    if not (_same_within_blocks(cX, X, part) and _same_within_blocks(cP, P, part)):
        out.problems.append(f"{name}: certificate differs from the witness inside a block")
    if not _close(block_bound(cX, cP), cert["value"]):
        out.problems.append(f"{name}: certificate does not attain its value {cert['value']}")


def verify_reproduce(rc: int, stdout: str, doc) -> Outcome:
    out = Outcome()
    if rc != 0 or "all values reproduced" not in stdout:
        out.problems.append(f"reproduce exited {rc}")
    return out


def verify_bound(X: np.ndarray, P: np.ndarray, part: frozenset):
    def verify(rc: int, stdout: str, doc) -> Outcome:
        out = Outcome()
        if rc != 0 or doc is None:
            out.problems.append(f"bound exited {rc}")
            return out
        if not _close(doc["quantum_bound"], block_bound(X, P)):
            out.problems.append(f"B = {doc['quantum_bound']}, recomputed {block_bound(X, P)}")
        want = block_bound(X, P, part)
        if parse(doc["partition"]) != part or not _close(doc["bound"], want):
            out.problems.append(f"B_{doc['partition']} = {doc['bound']}, recomputed {want}")
        cert = {"X": doc["certificate_X"], "P": doc["certificate_P"], "value": doc["bound"]}
        _check_certificate(out, doc["partition"], cert, X, P, part)
        return out

    return verify


def verify_check(s: State):
    def verify(rc: int, stdout: str, doc) -> Outcome:
        out = Outcome(known=len(s.known))
        if rc not in (0, 1) or doc is None:
            out.problems.append(f"check exited {rc}")
            return out
        nu = min_symplectic(s.gxx, s.gpp)
        if abs(doc["min_symplectic"] - nu) > REL_TOL:
            out.problems.append(f"min symplectic {doc['min_symplectic']}, recomputed {nu}")
        if abs(nu - 0.5) > EDGE_TOL and doc["physical"] != (nu > 0.5):
            out.problems.append(f"physical = {doc['physical']} at min symplectic {nu}")
        rows = {parse(r["partition"]): r for r in doc["partitions"]}
        if set(rows) != set(bipartitions(s.n)):
            out.problems.append("check did not report every bipartition")
            return out
        certified = set()
        for p, r in rows.items():
            low = lmi_min(s, p)
            if abs(r["lmi_min_eigenvalue"] - low) > REL_TOL:
                out.problems.append(f"{r['partition']}: LMI minimum {r['lmi_min_eigenvalue']}, recomputed {low}")
            if abs(low) > EDGE_TOL and r["lmi_violated"] != (low < 0):
                out.problems.append(f"{r['partition']}: LMI verdict {r['lmi_violated']} at {low}")
            pt = pt_min_symplectic(s, p)
            pt_ok = all(t["physical"] for t in r["partial_transposes"])
            if abs(pt - 0.5) > EDGE_TOL and pt_ok != (pt > 0.5):
                out.problems.append(f"{r['partition']}: PT verdict {pt_ok} at {pt}")
            if doc["physical"] and (r["lmi_violated"] or not pt_ok):
                certified.add(p)
        if (rc == 1) != bool(certified):
            out.problems.append(f"check exited {rc} with {len(certified)} detections")
        if s.separable and certified:
            out.problems.append("a product state was certified entangled")
        out.certified = len(certified & s.known)
        return out

    return verify


def _certified_line(stdout: str) -> set:
    for line in stdout.splitlines():
        if line.startswith("certified across: "):
            return {parse(t) for t in line[len("certified across: "):].split(", ")}
    return set()


def _check_report(out: Outcome, r: dict, s: State, no_error: bool) -> float:
    """Recompute one report; return its level s (or raw margin with no_error)."""
    X, P = np.asarray(r["witness"]["X"]), np.asarray(r["witness"]["P"])
    part = parse(r["partition"])
    G, B = witness_G(X, P, s), block_bound(X, P, part)
    name = r["partition"]
    if not _close(r["G"], G) or not _close(r["bound"], B):
        out.problems.append(f"{name}: G, B_I = {r['G']}, {r['bound']}; recomputed {G}, {B}")
    _check_certificate(out, name, r["certificate"], X, P, part)
    if no_error:
        return B - G
    sigma = witness_sigma(X, P, s)
    level = (B - G) / sigma
    if not _close(r["sigma"], sigma) or not _close(r["s"], level, (abs(B) + abs(G)) / sigma):
        out.problems.append(f"{name}: sigma, s = {r['sigma']}, {r['s']}; recomputed {sigma}, {level}")
    return level


def verify_search(s: State, level: float, no_error: bool = False):
    """search --all-bipartitions, ranked by level (or by raw margin with no_error)."""

    def verify(rc: int, stdout: str, doc) -> Outcome:
        out = Outcome(known=len(s.known))
        if rc not in (0, 1) or doc is None:
            out.problems.append(f"search exited {rc}")
            return out
        claimed = _certified_line(stdout)
        slack = 10 * REL_TOL if no_error else 1e-3
        seen = set()
        for r in doc:
            p = parse(r["partition"])
            seen.add(p)
            value = _check_report(out, r, s, no_error)
            if p in claimed and value < level - slack:
                out.problems.append(f"{r['partition']} certified at {value} < {level}")
            if p not in claimed and value > level + slack:
                out.problems.append(f"{r['partition']} not certified at {value} > {level}")
        if seen != set(bipartitions(s.n)):
            out.problems.append("search did not report every bipartition")
        if (rc == 1) != bool(claimed):
            out.problems.append(f"search exited {rc} with {len(claimed)} certified")
        if s.separable and claimed:
            out.problems.append("a product state was certified entangled")
        out.certified = len(claimed & s.known)
        return out

    return verify


def verify_genuine(s: State, level: float, must_find: bool):
    def verify(rc: int, stdout: str, doc) -> Outcome:
        out = Outcome(known=int("genuine" in s.known))
        if rc not in (0, 1) or doc is None:
            out.problems.append(f"genuine search exited {rc}")
            return out
        found = stdout.rstrip().endswith(": FOUND")
        levels = [_check_report(out, r, s, False) for r in doc]
        if {parse(r["partition"]) for r in doc} != set(bipartitions(s.n)):
            out.problems.append("genuine search did not report every bipartition")
        if found and min(levels) < level - 1e-3:
            out.problems.append(f"FOUND, but the lowest recomputed level is {min(levels)}")
        if (rc == 1) != found:
            out.problems.append(f"genuine search exited {rc}, FOUND = {found}")
        if must_find and not found:
            out.problems.append(f"no genuine witness found at level {level}")
        if s.separable and found:
            out.problems.append("a product state was certified entangled")
        out.certified = int(found and "genuine" in s.known)
        return out

    return verify
