"""Command-line front end.

Verbs: bound (quantum and partition bounds for a witness), check (physicality,
partial transposes and the sign-matrix LMI test), search (random rank-one
witnesses, or the optimal witness per partition or for genuine multipartite
entanglement from the convex solver), and
reproduce (recompute the bundled reference results and compare).

Exit codes: 0 = ran, nothing certified / all values reproduced; 1 =
entanglement certified (bound/check/search) or a reproduction mismatch;
2 = usage or input error. witness._certified decides what a search certifies.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .bounds import (
    WitnessPair,
    evaluate_G,
    lmi_separability_test,
    separability_bound,
    symmetric_witness,
    table1_bounds,
)
from .linalg import PSD_TOL, alt_inequality_gap, quantum_bound
from .partitions import Partition, PartitionError, bipartitions, parse_partition
from .partitions import _block_text
from .states import (
    BUILTIN_STATES,
    GENUINE_EXPECTED,
    GENUINE_P,
    GENUINE_X,
    PPT4_EXPECTED,
    PPT4_P,
    PPT4_PARAMS,
    PPT4_X,
    TABLE1_EXPECTED,
    CVState,
    StateFormatError,
    _as_block,
    _read_document,
    builtin_state,
    is_physical,
    load_state,
    partial_transpose,
)
from .witness import (
    _at_least,
    _certified,
    _check_seed,
    genuine_search,
    optimize_witness,
    random_rank_one_search,
    reports_table,
    reports_to_json,
    violation_score,
)

_UNPHYSICAL = "state is not physical; separability tests are inconclusive"


def _load_cli_state(source: str) -> CVState:
    if source in BUILTIN_STATES:
        return builtin_state(source)
    return load_state(source)


def _load_witness(path: str) -> WitnessPair:
    doc, n = _read_document(path, "witness", ("X", "P"))
    return WitnessPair(*(_as_block(doc[k], n, f"witness {k}") for k in ("X", "P")))


def _parse_partition_arg(text: str, n: int) -> Partition:
    if text == "trivial":
        return Partition.trivial(n)
    if text == "full":
        return Partition.singletons(n)
    return parse_partition(text, n)


def _fmt_matrix(M: np.ndarray) -> str:
    return "\n".join(
        "    [" + " ".join(f"{v:9.5f}" for v in row) + "]" for row in M
    )


def _write_json(path: str | None, text: Callable[[], str]) -> None:
    """Write text() to path; the text is built only when a path was given."""
    if path:
        Path(path).write_text(text() + "\n")


def cmd_bound(args: argparse.Namespace) -> int:
    if args.symmetric_witness is not None:
        w = symmetric_witness(args.symmetric_witness)
    else:
        w = _load_witness(args.witness)
    n = w.n
    if args.table1:
        if args.symmetric_witness is None:
            raise ValueError("--table1 applies to --symmetric-witness only")
        cells = table1_bounds(n)._asdict()
        print(f"n = {n}")
        for key, v in cells.items():
            print(f"  {key} = {'-' if v is None else format(v, '.5f')}")
        _write_json(args.json, lambda: json.dumps({"n": n, **cells}, indent=2))
        return 0

    p = _parse_partition_arg(args.partition, n)
    B = quantum_bound(w.X, w.P)
    print(f"quantum bound B(X, P) = {B:.5f}")
    payload = {"n": n, "quantum_bound": B}
    if p.k > 1:
        res = separability_bound(w, p)
        print(f"partition bound B_{p.text}(X, P) = {res.value:.5f}")
        print("  certificate X:")
        print(_fmt_matrix(res.certificate_X))
        print("  certificate P:")
        print(_fmt_matrix(res.certificate_P))
        payload.update(
            {
                "partition": p.text,
                "bound": res.value,
                "certificate_X": res.certificate_X.tolist(),
                "certificate_P": res.certificate_P.tolist(),
            }
        )
    _write_json(args.json, lambda: json.dumps(payload, indent=2))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    state = _load_cli_state(args.state)
    n = state.n
    if args.partition:
        parts = [_parse_partition_arg(args.partition, n)]
    else:
        parts = bipartitions(n) if n > 1 else []
    physical, smallest = is_physical(state)
    print(
        f"state {state.label or args.state}: "
        f"{'physical' if physical else 'NOT physical'} "
        f"(min symplectic eigenvalue {smallest:.6f}, needs >= 0.5)"
    )
    # The all-plus sign pattern is the physicality condition at PSD_TOL, tighter than
    # is_physical's slack: on a physical state only LMI results below it count.
    floor = min(lmi_separability_test(state, Partition.trivial(n))[1], 0.0) - PSD_TOL
    certified = False
    results = []
    for p in parts:
        violated, min_eig, pattern = lmi_separability_test(state, p)
        counted = min_eig < floor
        print(f"partition {p.text}:")
        pts = []
        # one block has no partial transpose; complementary flips share a
        # spectrum, so a bipartition tests one side
        for block in p.blocks[:1] if p.k == 2 else p.blocks if p.k > 2 else ():
            ok, low = is_physical(partial_transpose(state, block))
            name = f"PT {_block_text(block, n)}"
            print(f"  {name}: {'physical' if ok else 'unphysical'} (min {low:.6f})")
            pts.append({"modes": name, "physical": ok, "min_symplectic": low})
            certified |= physical and not ok
        slack = physical and violated and not counted
        print(
            f"  LMI: {'VIOLATED' if violated else 'satisfied'} "
            f"(min eigenvalue {min_eig:.6f}, worst pattern {pattern})"
            f"{' within the physicality tolerance' if slack else ''}"
        )
        certified |= physical and counted
        results.append(
            {
                "partition": p.text,
                "lmi_violated": violated,
                "lmi_min_eigenvalue": min_eig,
                "lmi_worst_pattern": list(pattern),
                "partial_transposes": pts,
            }
        )
    if not physical:
        print(_UNPHYSICAL)
    elif certified:
        print("entanglement certified")
    else:
        print("nothing detected")
    payload = {"physical": physical, "min_symplectic": smallest, "partitions": results}
    _write_json(args.json, lambda: json.dumps(payload, indent=2))
    return 1 if (physical and certified) else 0


def cmd_search(args: argparse.Namespace) -> int:
    state = _load_cli_state(args.state)
    n = state.n
    if args.threads is not None:
        _at_least("--threads", args.threads, 1)
    _at_least("--restarts", args.restarts, 0)
    s_level = 0.0 if args.no_error else args.s_level
    if not args.no_error and not state.has_error_model:
        raise ValueError(
            "state has no error model; pass --no-error to score by raw margin"
        )
    # Each search checks only what it reads; a bad value fails on every path.
    _at_least("trials", args.trials, 1)
    _at_least("s_level", s_level, 0)
    _check_seed(args.seed)

    if args.genuine:
        if args.no_error:
            raise ValueError("the genuine search needs an error model")
        found, _, reports = genuine_search(state, s_level=s_level)
        verdict = (
            f"genuine multipartite entanglement at level s >= {s_level}: "
            f"{'FOUND' if found else 'not found'}"
        )
    else:
        if args.all_bipartitions:
            parts = bipartitions(n)
        else:
            parts = [_parse_partition_arg(args.partition, n)]
        # Raw margins take the covariances as exact, so unphysical data certify
        # nothing. Error-aware searches are not gated yet: the builtin klev4, a
        # measured state with an error model, is itself below the vacuum bound.
        nu_min = None
        if args.no_error:
            physical, nu_min = is_physical(state)
            if not physical:
                print(_UNPHYSICAL)
                _write_json(args.json, lambda: reports_to_json([]))
                return 0
        # Rank-one draws cannot reach the matrix witnesses some states need, so
        # margin mode defaults to the convex search.
        method = args.method or ("optimize" if args.no_error else "random")
        if method == "optimize":
            reports = optimize_witness(state, parts, no_error=args.no_error)
        else:
            reports = random_rank_one_search(
                state, parts, trials=args.trials, seed=args.seed,
                threads=args.threads, no_error=args.no_error,
            )
        hits = [r for r in reports if _certified(r, state, s_level, nu_min=nu_min)]
        found = bool(hits)
        verdict = "nothing certified at the requested level"
        if found:
            verdict = "certified across: " + ", ".join(r.partition.text for r in hits)
    print(reports_table(reports))
    print(verdict)
    _write_json(args.json, lambda: reports_to_json(reports))
    return 1 if found else 0


def _compare(name: str, got: float, want: float, tol: float) -> tuple[bool, str]:
    ok = abs(got - want) <= tol
    line = (
        f"  {name:<12} computed {got:12.6f}   expected {want:9.4f}   "
        f"delta {got - want:+.2e}   {'ok' if ok else 'MISMATCH'}"
    )
    return ok, line


def _checked(checks: list[tuple], payload: dict) -> tuple[bool, list[str], dict]:
    """Compare each (name, got, want, tol); all must pass."""
    results = [_compare(*c) for c in checks]
    return all(ok for ok, _ in results), [line for _, line in results], payload


def _reproduce_table1() -> tuple[bool, list[str], dict]:
    rows = {n: table1_bounds(n)._asdict() for n in range(2, 9)}
    checks = [
        (f"{key}(n={n})", row[key], want[n], 0.01)
        for n, row in rows.items() for key, want in TABLE1_EXPECTED.items()
        if row[key] is not None and n in want
    ]
    return _checked(checks, {"rows": rows})


def _reproduce_ppt4() -> tuple[bool, list[str], dict]:
    state = builtin_state("ppt4")
    w = WitnessPair(PPT4_X, PPT4_P)
    G = evaluate_G(w, state)
    part = parse_partition("12|34", 4)
    res = separability_bound(w, part)
    x, y, p, q = (PPT4_PARAMS[k] for k in ("x", "y", "p", "q"))
    cert = 2 * (np.sqrt(x * p) + np.sqrt(y * q))
    want = PPT4_EXPECTED["B_12|34"]
    checks = [("G", G, PPT4_EXPECTED["G"], 1e-6), ("B_12|34 cert", cert, want, 1e-6)]
    payload = {"G": G, "certificate": cert, "bound": res.value}
    ok, lines, _ = _checked(checks, payload)
    ok3 = res.value >= want - 1e-8
    lines.append(
        f"  {'B_12|34':<12} computed {res.value:12.6f}   expected >= {want:.6f}"
        f"            {'ok' if ok3 else 'MISMATCH'}"
    )
    violated, _, _ = lmi_separability_test(state, parse_partition("1|234", 4))
    passed, _, _ = lmi_separability_test(state, part)
    ok4 = violated and not passed
    lines.append(
        f"  {'LMI':<12} 1|234 violated: {violated}   12|34 violated: {passed}   "
        f"{'ok' if ok4 else 'MISMATCH'}"
    )
    return ok and ok3 and ok4, lines, payload


def _reproduce_genuine4() -> tuple[bool, list[str], dict]:
    state = builtin_state("klev4")
    w = WitnessPair(GENUINE_X, GENUINE_P)
    reports = [violation_score(w, state, p) for p in bipartitions(4)]
    bounds = {r.partition.text: r.bound for r in reports}
    payload = {"G": reports[0].G, "sigma": reports[0].sigma, "bounds": bounds}
    payload["min_s"] = min(r.s for r in reports)
    want = GENUINE_EXPECTED
    checks = [(k, payload[k], want[k], 1e-4) for k in ("G", "sigma")]
    checks += [(f"B_{k}", v, want["bounds"][k], 1e-3) for k, v in bounds.items()]
    checks.append(("min s", payload["min_s"], want["min_s"], 0.01))
    return _checked(checks, payload)


def _reproduce_alt() -> tuple[bool, list[str], dict]:
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    worst = np.inf
    for _ in range(1000):
        n = int(gen.integers(1, 7))
        A = gen.standard_normal((n, n))
        B = gen.standard_normal((n, n))
        worst = min(worst, alt_inequality_gap(A @ A.T, B @ B.T))
    ok = worst >= -1e-9
    lines = [
        f"  min gap of tr sqrt(sqrt(X) P sqrt(X)) - tr(sqrt(X) sqrt(P)) over "
        f"1000 random PSD pairs: {worst:.3e} (expected >= -1e-9) "
        f"{'ok' if ok else 'MISMATCH'}"
    ]
    return ok, lines, {"min_gap": worst}


_REPRODUCE = {
    "table1": _reproduce_table1,
    "ppt4": _reproduce_ppt4,
    "genuine4": _reproduce_genuine4,
    "alt-property": _reproduce_alt,
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    ok, lines, payload = _REPRODUCE[args.target]()
    print(f"reproduce {args.target}:")
    for line in lines:
        print(line)
    print("all values reproduced" if ok else "MISMATCHES found")
    _write_json(args.json, lambda: json.dumps(payload, indent=2))
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every main call. parse_args makes a
    fresh Namespace but shares the defaults, so each must stay immutable."""
    ap = argparse.ArgumentParser(
        prog="cvwitness",
        description="Certify multipartite entanglement of Gaussian states "
        "from second-order moments.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("bound", help="quantum and partition bounds for a witness")
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--witness", help="witness JSON file {n, X, P}")
    src.add_argument(
        "--symmetric-witness",
        type=int,
        metavar="N",
        help="use the built-in permutation-symmetric N-mode witness",
    )
    b.add_argument(
        "--partition",
        default="trivial",
        help="partition text such as '12|34', or 'trivial' / 'full'",
    )
    b.add_argument("--table1", action="store_true", help="print the q/a/b/f row")
    b.add_argument("--json", metavar="FILE", help="write machine-readable output")
    b.set_defaults(func=cmd_bound)

    c = sub.add_parser(
        "check", help="physicality, partial transposes and the sign-matrix LMI test"
    )
    c.add_argument("--state", required=True, help="builtin name or state JSON file")
    c.add_argument("--partition", help="restrict to one partition (default: all bipartitions)")
    c.add_argument("--json", metavar="FILE")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("search", help="search for violating witnesses")
    s.add_argument("--state", required=True, help="builtin name or state JSON file")
    tgt = s.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--partition", help="single partition to test")
    tgt.add_argument(
        "--all-bipartitions", action="store_true", help="test every bipartition"
    )
    tgt.add_argument(
        "--genuine",
        action="store_true",
        help="one witness violating all bipartitions at once",
    )
    s.add_argument(
        "--method",
        choices=("random", "optimize"),
        default=None,
        help="witness search method (default: random; optimize with --no-error)",
    )
    s.add_argument(
        "--trials",
        type=int,
        default=10**6,
        help="random rank-one witnesses drawn; one set scores every partition",
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument(
        "--s-level",
        "--target-s",
        dest="s_level",
        type=float,
        default=6.0,
        help="certification level in standard deviations",
    )
    s.add_argument("--threads", type=int, help="default: the CPUs this process may use")
    s.add_argument(
        "--restarts", type=int, default=200,
        help="ignored, as the convex solver needs no restarts; must be >= 0",
    )
    s.add_argument(
        "--no-error",
        action="store_true",
        help="ignore the error model and score by the raw margin B_I - G",
    )
    s.add_argument("--json", metavar="FILE")
    s.set_defaults(func=cmd_search)

    r = sub.add_parser("reproduce", help="recompute bundled reference results")
    r.add_argument("target", choices=tuple(_REPRODUCE))
    r.add_argument("--json", metavar="FILE")
    r.set_defaults(func=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; usage errors and --help
    raise SystemExit. main may be called repeatedly in one process: it builds
    its parser once and keeps no other state between calls. The parser binds
    the cmd_* verb functions when it is first built, so replacing cli.cmd_*
    after the first call has no effect."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateFormatError, PartitionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
