"""Spans around the public functions of each cvwitness module, recorded from
the benchmark's side.

The modules import names directly (``from .linalg import quantum_bound``), so
a wrapper replaces the function in every cvwitness module namespace that
holds it, and the originals are put back when the span recording ends.
Eigendecompositions are counted by wrapping numpy.linalg.eigh, eigvalsh and
eigvals, which the package looks up on numpy.linalg at call time.
"""
from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "cli": ("main",),
    "witness": (
        "random_rank_one_search",
        "genuine_search",
        "optimize_witness",
        "violation_score",
        "measurement_sigma",
        "reports_table",
        "reports_to_json",
    ),
    "bounds": ("separability_bound", "lmi_separability_test", "evaluate_G", "table1_bounds"),
    "linalg": ("quantum_bound", "quantum_bound_gradient", "symplectic_spectrum", "sqrt_psd"),
    "states": ("is_physical", "partial_transpose", "builtin_state", "load_state"),
    "partitions": ("bipartitions", "all_partitions", "parse_partition", "free_mask"),
}
SPANS = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
EIG_FUNCTIONS = ("eigh", "eigvalsh", "eigvals")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "witness.random_rank_one_search.trials_per_s": "1/s",
        "witness.genuine_search.found_frac": "frac",
        "witness.optimize_witness.converged_frac": "frac",
        "bounds.separability_bound.iterations_mean": "count",
        "bounds.separability_bound.iterations_max": "count",
        "bounds.separability_bound.converged_frac": "frac",
        "linalg.eig.calls": "count",
        "linalg.eig.calls_per_op": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Per-span call counts and self time (span time minus wrapped children),
    plus figures read from the returned values of a few spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # figures read from results
        self.eig_calls = 0

    def counters(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        return {**self.calls, **self.counts, "linalg.eig.calls": self.eig_calls}

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        if name == "bounds.separability_bound":
            iterations = int(getattr(result, "iterations", 0))
            c["iterations"] += iterations
            c["iterations_max"] = max(c["iterations_max"], iterations)
            c["bound_converged"] += bool(getattr(result, "converged", False))
        elif name == "witness.optimize_witness":
            c["optimize_converged"] += bool(getattr(result, "converged", False))
        elif name == "witness.genuine_search":
            c["genuine_found"] += bool(result[0])
        elif name == "witness.random_rank_one_search":
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
            c["trials"] += int(getattr(cfg, "trials", 0))

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += elapsed - children
            with self._lock:
                self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.eig_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cvwitness"]
        for module, fns in LAYERS.items():
            home = sys.modules[f"cvwitness.{module}"]
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapped = self._span(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapped)
        for fn_name in EIG_FUNCTIONS:
            original = getattr(np.linalg, fn_name)
            self._restore.append((np.linalg, fn_name, original))
            setattr(np.linalg, fn_name, self._count(original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def metrics(self, ops: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        values = {}
        for name in SPANS:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        c = self.counts

        def share(count: int, span: str) -> float:
            return count / self.calls[span] if self.calls[span] else 0.0

        rank1_self = self.self_s["witness.random_rank_one_search"]
        values.update({
            "witness.random_rank_one_search.trials_per_s": c["trials"] / rank1_self if rank1_self else 0.0,
            "witness.genuine_search.found_frac": share(c["genuine_found"], "witness.genuine_search"),
            "witness.optimize_witness.converged_frac": share(c["optimize_converged"], "witness.optimize_witness"),
            "bounds.separability_bound.iterations_mean": share(c["iterations"], "bounds.separability_bound"),
            "bounds.separability_bound.iterations_max": c["iterations_max"],
            "bounds.separability_bound.converged_frac": share(c["bound_converged"], "bounds.separability_bound"),
            "linalg.eig.calls": self.eig_calls,
            "linalg.eig.calls_per_op": self.eig_calls / ops if ops else 0.0,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        return values
