"""Traced run of one rabichain CLI invocation, and the per-layer metrics of its spans.

Run as a script in a fresh interpreter, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/tracer.py --spans spans.json [--alloc] -- simulate --config run.cfg

It times ``import rabichain.cli``, wraps the package's public functions at
every name callers look them up under (the CLI imports names directly, so
``rabichain.cli.run_trajectory`` is wrapped as well as the defining
attribute), runs ``rabichain.cli.main`` as the root span and writes the spans
and counters to the JSON file.  Spans are kept in memory until the end.
No package file is touched: all spans live in this file.
"""

from __future__ import annotations

# Module level imports only what a bare interpreter has already loaded, so
# the timed import of rabichain.cli in main() pays for everything the package
# needs; json and tracemalloc are imported where used.
import functools
import importlib
import itertools
import os
import sys
import threading
import time

# (defining module, attribute, span name).  Names are what the metrics use.
TRACED = [
    ("rabichain.config", "load_config", "config.load_config"),
    ("rabichain.dynamics", "build_chain", "dynamics.build_chain"),
    ("rabichain.dynamics", "eigh_tridiagonal", "dynamics.eigensolve"),
    ("rabichain.dynamics", "run_trajectory", "dynamics.run_trajectory"),
    ("rabichain.dynamics", "full_rabi_reference", "dynamics.full_rabi_reference"),
    ("rabichain.dynamics", "chain_reference_state", "dynamics.chain_reference_state"),
    ("rabichain.output", "timeseries_text", "output.timeseries_text"),
    ("rabichain.output", "intensity_map_text", "output.intensity_map_text"),
    ("rabichain.output", "intensity_map_pgm", "output.intensity_map_pgm"),
    ("rabichain.output", "sweep_summary_text", "output.sweep_summary_text"),
    ("rabichain.output", "write_text", "output.write"),
    ("rabichain.output", "write_bytes", "output.write"),
    ("rabichain.lattice", "design", "lattice.design"),
    ("rabichain.lattice", "verify_recipe", "lattice.verify_recipe"),
    ("rabichain.lattice", "format_recipe", "lattice.format_recipe"),
    ("rabichain.validate", "run_validation", "validate.run_validation"),
] + [
    ("rabichain.validate", check, f"validate.{check}")
    for check in (
        "check_roundtrip", "check_unitarity", "check_energy_conservation",
        "check_oracle_equivalence", "check_sign_symmetry",
        "check_truncation_convergence", "check_lf_agreement",
        "check_periodicity", "check_jc_limit",
    )
]

ROOT = "cli.main"

# per-layer metric -> unit; every traced run reports all of them
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "config.load_config_s": "s",
    "dynamics.build_chain_s": "s",
    "dynamics.build_chain_calls": "count",
    "dynamics.eigensolve_s": "s",
    "dynamics.build_chain_self_s": "s",
    "dynamics.run_trajectory_s": "s",
    "dynamics.run_trajectory_self_s": "s",
    "dynamics.run_trajectory_calls": "count",
    "dynamics.peak_alloc_mb": "MB",
    "dynamics.grid_cells": "count",
    "dynamics.evolve_gflop_computed": "GFLOP",
    "dynamics.full_rabi_reference_s": "s",
    "dynamics.full_rabi_reference_calls": "count",
    "dynamics.chain_reference_state_s": "s",
    "output.intensity_map_text_s": "s",
    "output.timeseries_text_s": "s",
    "output.intensity_map_pgm_s": "s",
    "output.sweep_summary_text_s": "s",
    "output.write_s": "s",
    "output.bytes_written": "bytes",
    "output.floats_formatted": "count",
    "lattice.design_s": "s",
    "lattice.verify_recipe_s": "s",
    "lattice.format_recipe_s": "s",
    **{f"{name}_s": "s" for _, _, name in TRACED if name.startswith("validate.check_")},
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans (id, parent, name, thread, start, end) and counters, kept in memory.

    A span opened on a thread with no open span (a sweep worker) is parented
    to the root span.  With ``alloc``, tracemalloc runs while any
    run_trajectory call does; it slows allocation-heavy code, so the runs
    that give the per-layer times leave it off.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.counters: dict[str, float] = {}
        self.peak_alloc_mb = 0.0
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._alloc_depth = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if self.root is None:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end))

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def alloc_enter(self) -> None:
        """Start tracemalloc when the first of any concurrent run_trajectory calls begins."""
        import tracemalloc

        with self._lock:
            self._alloc_depth += 1
            if self._alloc_depth == 1:
                tracemalloc.start()

    def alloc_exit(self) -> None:
        import tracemalloc

        with self._lock:
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_alloc_mb = max(self.peak_alloc_mb, peak)


def _wrap(tracer: Tracer, fn, attr: str, name: str):
    """fn inside a span, plus the counters derived from its arguments and result."""
    from rabichain.model import decompose

    def wrapper(*args, **kwargs):
        if attr == "run_trajectory":
            if tracer.alloc:
                tracer.alloc_enter()
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            finally:
                if tracer.alloc:
                    tracer.alloc_exit()
            params, initial = args[0], args[1]
            n, nt = params.n_trunc, result.t_grid.shape[0]
            chains = sum(1 for part in decompose(initial) if part.weight != 0.0)
            tracer.count("grid_cells", chains * n * nt)
            tracer.count("evolve_flop", chains * 8 * n * n * nt)
            return result
        result = tracer.span(name, fn, *args, **kwargs)
        if attr in ("write_text", "write_bytes"):
            tracer.count("bytes_written", os.path.getsize(args[0]))
        elif attr == "timeseries_text":
            tracer.count("floats_formatted", 5 * args[0].t_grid.shape[0])
        elif attr == "intensity_map_text":
            nt, n = args[0].pnt.shape
            tracer.count("floats_formatted", nt * (n + 1))
        elif attr == "sweep_summary_text":
            tracer.count("floats_formatted", 4 * len(args[0]))
        return result

    return functools.update_wrapper(wrapper, fn)


def install(tracer: Tracer) -> None:
    """Replace each traced function by its wrapper under every name it is bound to."""
    for module_name, attr, span_name in TRACED:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(tracer, original, attr, span_name)
        for module in [m for name, m in sys.modules.items() if name.startswith("rabichain")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def self_seconds(trace: dict) -> dict[str, float]:
    """Summed self time of each span name."""
    selfs = _self_times(trace["spans"])
    out: dict[str, float] = {}
    for sid, _, name, _, _, _ in trace["spans"]:
        out[name] = out.get(name, 0.0) + selfs[sid]
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (all but trace.overhead_s)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for _, _, name, _, start, end in trace["spans"]:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    self_ = self_seconds(trace)
    counters = trace["counters"]
    metrics = {
        "cli.import_s": trace["import_s"],
        "cli.main_self_s": self_.get(ROOT, 0.0),
        "dynamics.build_chain_calls": calls.get("dynamics.build_chain", 0),
        "dynamics.build_chain_self_s": self_.get("dynamics.build_chain", 0.0),
        "dynamics.run_trajectory_self_s": self_.get("dynamics.run_trajectory", 0.0),
        "dynamics.run_trajectory_calls": calls.get("dynamics.run_trajectory", 0),
        "dynamics.peak_alloc_mb": trace["peak_alloc_mb"],
        "dynamics.grid_cells": counters.get("grid_cells", 0),
        "dynamics.evolve_gflop_computed": counters.get("evolve_flop", 0) / 1e9,
        "dynamics.full_rabi_reference_calls": calls.get("dynamics.full_rabi_reference", 0),
        "output.bytes_written": counters.get("bytes_written", 0),
        "output.floats_formatted": counters.get("floats_formatted", 0),
    }
    for name in LAYER_UNITS:
        if name not in metrics and name != "trace.overhead_s":
            metrics[name] = total.get(name[: -len("_s")], 0.0)  # a span's total time
    return metrics


def main(argv: list[str]) -> int:
    alloc = argv[2:3] == ["--alloc"]
    if len(argv) < 3 + alloc or argv[0] != "--spans" or argv[2 + alloc] != "--":
        print("usage: tracer.py --spans FILE [--alloc] -- <rabichain cli args>", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    import rabichain.cli as cli

    import_s = time.perf_counter() - t0
    import json

    tracer = Tracer(alloc)
    install(tracer)
    rc = tracer.span(ROOT, cli.main, argv[3 + alloc:])
    with open(argv[1], "w") as f:
        json.dump({
            "import_s": import_s,
            "spans": tracer.spans,
            "counters": tracer.counters,
            "peak_alloc_mb": tracer.peak_alloc_mb,
        }, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
