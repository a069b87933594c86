"""Benchmark of the cvwitness command line, one workload per process.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Drives cvwitness.cli.main in-process on inputs generated from --seed and a
fixed corpus (see workloads.py), checks every output against the independent
oracles in oracles.py, prints a report and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 runs the
workload's op list round after round for about --seconds and reports the
end-to-end metrics, with every time scaled to a reference host speed
(calibrate.py); --trace 1 runs the list three times (untraced, traced, traced
again), reports the per-layer metrics of the first traced copy and checks that
every count repeats in the second. Exits 1 when an op fails, 2 when the
package is missing.
"""
from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import Calibrator
from oracles import Outcome
from spans import Tracer, metric_units
from workloads import SIZES, WORKLOADS, Op, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
# An op's time is the median of its scaled times over the rounds; scaling uses
# the kernel times at the op's two ends, so a speed change inside a long op is
# only partly caught.
MIN_ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CVWITNESS_THREADS")
# Metrics of the untraced run: the ones the result line carries (listed as
# end_to_end in BENCHMARK.json), then the ones only the report prints.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "certified_frac": "frac",
    "peak_rss_mb": "MB",
}
REPORTED = {"failed_frac": "frac", "op_p90_s": "s", "op_p90_samples": "count", "control_s": "s"}
P90_MIN_OPS = 100


@dataclass
class Result:
    op: Op
    seconds: float
    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    eig_calls: int = 0
    outcome: Outcome | None = None
    scale: float = 1.0  # turns seconds into seconds at the reference speed


def execute(cli, op: Op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    return Result(op, perf_counter() - start, rc, out.getvalue(), err.getvalue(), error)


def verify(r: Result) -> Outcome:
    if r.error is not None:
        return Outcome([f"raised {r.error}"])
    if r.rc == 2:
        return Outcome([f"exited 2: {r.stderr.strip()}"])
    path = r.op.json_path
    try:
        doc = json.loads(path.read_text()) if path is not None and path.exists() else None
        return r.op.verify(r.rc, r.stdout, doc)
    except Exception as exc:  # output the oracle cannot read is a failed op
        return Outcome([f"unreadable output: {type(exc).__name__}: {exc}"])


def run_round(cli, ops: list[Op], tracer: Tracer | None = None,
              cal: Calibrator | None = None) -> tuple[float, list[Result]]:
    """Run ops back to back, with a calibration kernel between ops when `cal`
    is given; verify them after the wall clock has stopped."""
    for op in ops:
        if op.json_path is not None:
            op.json_path.unlink(missing_ok=True)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        kernel_s = cal() if cal else 0.0
        for op in ops:
            before = tracer.eig_calls if tracer else 0
            results.append(execute(cli, op))
            results[-1].eig_calls = tracer.eig_calls - before if tracer else 0
            if cal:
                after = cal()
                results[-1].scale = cal.scale(kernel_s, after)
                kernel_s = after
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for r in results:
        r.outcome = verify(r)
    return wall, results


class SetupFailed(RuntimeError):
    pass


def setup(w: Workload, size, seed: int, work: Path, cal: Calibrator):
    """Import the package, generate the op list and run one warm-up op.

    Repeated SETUP_REPEATS times from a fresh import; returns the median
    scaled time, the CLI module of the last import and the op list.
    """
    times = []
    kernel_s = cal()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        for name in [m for m in sys.modules if m.split(".")[0] == "cvwitness"]:
            del sys.modules[name]
        cli = importlib.import_module("cvwitness.cli")
        ops = w.build(np.random.default_rng([seed, 1]), work, size)
        warm = execute(cli, w.warmup_op(np.random.default_rng([seed, 0])))
        elapsed = perf_counter() - start
        after = cal()
        times.append(elapsed * cal.scale(kernel_s, after))
        kernel_s = after
        problems = verify(warm).problems
        if problems:
            raise SetupFailed("; ".join(problems))
    return statistics.median(times), cli, ops


def measure(cli, w: Workload, size, seed: int, work: Path, seconds: float, ops: list[Op],
            setup_s: float, cal: Calibrator):
    """Run the op list at least MIN_ROUNDS times, and more while another round
    is expected to end within `seconds`, then the workload's control op if it
    has one. wall_s and the latency quantiles use each op's median scaled time
    over the rounds."""
    walls, rounds = [], []
    start = perf_counter()
    while True:
        wall, res = run_round(cli, ops, cal=cal)
        walls.append(wall)
        rounds.append(res)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_ROUNDS and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    latency = [statistics.median(r[i].seconds * r[i].scale for r in rounds)
               for i in range(len(ops))]
    metrics = {"setup_s": setup_s, "wall_s": sum(latency),
               "op_p50_s": statistics.median(latency)}
    if len(latency) >= P90_MIN_OPS:
        metrics["op_p90_s"] = statistics.quantiles(latency, n=10)[-1]
        metrics["op_p90_samples"] = len(latency)
    # Rounds repeat the same ops, so the first round alone gives the shares.
    scored = list(rounds[0])
    if w.control is not None:
        before = cal()
        control = execute(cli, w.control(np.random.default_rng([seed, 2]), work, size))
        control.scale = cal.scale(before, cal())
        control.outcome = verify(control)
        metrics["control_s"] = control.seconds * control.scale
        scored.append(control)
        rounds.append([control])
    results = [r for res in rounds for r in res]
    known = sum(r.outcome.known for r in scored)
    metrics.update({
        "certified_frac": sum(r.outcome.certified for r in scored) / known if known else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": sum(bool(r.outcome.problems) for r in results) / len(results),
    })
    speed = [statistics.median(r.scale for r in res) for res in rounds[:len(walls)]]
    lines = [
        f"rounds {len(walls)}  ops {len(ops)}  known targets {known}",
        "round walls " + " ".join(f"{x:.3f}" for x in walls),
        "round scales " + " ".join(f"{x:.3f}" for x in speed),
    ]
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(ops, latency):
        by_kind.setdefault(op.kind, []).append(t)
    for kind, times in by_kind.items():
        lines.append(f"scaled {kind!r}: ops {len(times)}  sum {sum(times):.4f}  "
                     f"median {statistics.median(times):.4f}")
    return metrics, results, lines


def measure_traced(cli, ops: list[Op]):
    first, second = Tracer(), Tracer()
    untraced, res_u = run_round(cli, ops)
    traced, res_a = run_round(cli, ops, first)
    _, res_b = run_round(cli, ops, second)
    op_lines, repeated = [], True
    for i, (a, b) in enumerate(zip(res_a, res_b)):
        op_lines.append(f"op {i} {a.op.kind!r} eig_calls {a.eig_calls} seconds {a.seconds:.4f}")
        repeated &= a.eig_calls == b.eig_calls
    repeated &= first.counters() == second.counters()
    metrics = first.metrics(len(ops), traced, untraced)
    return metrics, res_u + res_a + res_b, op_lines, repeated


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, w: Workload, cal: Calibrator) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "workload_threads": w.threads,
        "calibration": {"kernel": w.kernel, "cpus": cal.cpus},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def _print_metrics(values: dict, units: dict) -> None:
    for name, unit in units.items():
        if name in values:
            print(f"metric {name} {values[name]!r} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny shrinks every op, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "cvwitness" / "cli.py").is_file():
        print(f"error: no cvwitness package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w, size = WORKLOADS[args.workload], SIZES[args.size]
    cpus = sorted(os.sched_getaffinity(0))
    # A single-threaded workload is pinned to one CPU, so that the kernel
    # times the CPU the ops run on.
    cal = Calibrator(cpus if w.threads > 1 else cpus[:1], w.kernel)
    print("env " + json.dumps(environment(args, w, cal)))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        work = Path(tmp)
        try:
            setup_s, cli, ops = setup(w, size, args.seed, work, cal)
        except SetupFailed as exc:
            print(f"error: warm-up failed: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            metrics, results, lines, repeated = measure_traced(cli, ops)
            lines.append(f"counts repeat across the two traced copies: {repeated}")
            units = shown = metric_units()
        else:
            metrics, results, lines = measure(
                cli, w, size, args.seed, work, args.seconds, ops, setup_s, cal
            )
            repeated = True
            units, shown = {**END_TO_END, **REPORTED}, END_TO_END

    print("\n".join(lines))
    failed = [r for r in results if r.outcome.problems]
    for r in failed:
        print(f"FAILED {r.op.kind} {' '.join(r.op.argv)}: {'; '.join(r.outcome.problems)}")
    _print_metrics(metrics, units)
    correct = not failed and repeated
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
