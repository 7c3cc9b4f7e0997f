"""rabichain benchmark: run the real CLI on a seeded workload and check its outputs.

    python3 perfbench/run.py --workload map_export --seed 0 --seconds 55 --trace 0

Each invocation is a fresh ``python -m rabichain.cli`` child with the
checkout's ``src`` first on ``PYTHONPATH``, so the working tree is measured,
not an installed copy.  BLAS threading is left at the user's default.
Repetitions run until ``--seconds`` is spent (at least ``MIN_REPS``); every
invocation's outputs are checked after its repetition's timing has stopped.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced repetition with one run through ``tracer.py`` (plus, once, a
tracemalloc repetition) and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is the result object; the line before
it holds the samples, failures and machine.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))
import tracer  # noqa: E402  (sibling module: this directory is sys.path[0] when run as a script)

DEFAULT_SEED = 0      # the seed whose output hashes are in reference_hashes.json

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}
MIN_REPS = 3          # timing repetitions per run, even past --seconds
SETUP_REPEATS = 5     # fresh interpreters timed for setup_s
SETUP_SNIPPET = (
    "import sys, rabichain.cli\n"
    "from rabichain.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


def spawn(argv: list[str], cwd: Path, log: str) -> Child:
    """Run one child to completion; wall is spawn to exit, rusage is the child's own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(cwd / f"{log}.out", "w") as out, open(cwd / f"{log}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def file_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in a directory, by file name."""
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 24), b""):
                digest.update(chunk)
        hashes[path.name] = digest.hexdigest()
    return hashes


def check_invocation(inv, log: str, child: Child, workdir: Path,
                     references: dict[str, str] | None) -> list[str]:
    if child.returncode != 0:
        stderr = (workdir / f"{log}.err").read_text().strip().splitlines()
        return [f"exit code {child.returncode}: {stderr[-1:]}"]
    out = workdir / inv.out_dir if inv.out_dir else workdir
    try:
        problems = inv.check(out, (workdir / f"{log}.out").read_text())
        if references is not None and inv.out_dir:
            got = {f"{inv.out_dir}/{k}": v for k, v in file_hashes(out).items()}
            want = {k: v for k, v in references.items() if k.startswith(f"{inv.out_dir}/")}
            differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
            if differ:
                problems.append(f"output hash mismatch: {differ}")
    except Exception as exc:  # a check that cannot read the output fails the invocation
        problems = [f"check raised {exc!r}"]
    return problems


def run_rep(workload, workdir: Path, mode: str, references) -> dict:
    """One repetition: the workload's invocations in order, then their checks.

    mode is "plain" (untraced), "spans" (traced) or "alloc" (traced with tracemalloc).
    """
    children = []
    for i, inv in enumerate(workload.invocations):
        if inv.out_dir:
            shutil.rmtree(workdir / inv.out_dir, ignore_errors=True)
        if mode == "plain":
            argv = [sys.executable, "-m", "rabichain.cli"]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", f"spans{i}.json",
                    *(["--alloc"] if mode == "alloc" else []), "--"]
        children.append(spawn(argv + list(inv.args), workdir, f"inv{i}"))
    problems = [check_invocation(inv, f"inv{i}", child, workdir, references)
                for i, (inv, child) in enumerate(zip(workload.invocations, children))]
    rep = {
        "wall_s": sum(c.wall_s for c in children),
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
        "problems": [p for ps in problems for p in ps],
        "failed": sum(1 for ps in problems if ps),
        "attempted": len(children),
        "mode": mode,
    }
    if mode != "plain":
        rep["traces"] = [json.loads((workdir / f"spans{i}.json").read_text())
                         for i, child in enumerate(children)
                         if child.returncode == 0 and (workdir / f"spans{i}.json").is_file()]
    return rep


def measure_setup(workload, workdir: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import rabichain.cli and load the config."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, workload.setup_config]
    walls = []
    for _ in range(repeats):
        child = spawn(argv, workdir, "setup")
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {(workdir / 'setup.err').read_text()}")
        walls.append(child.wall_s)
    return walls


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(samples)[k - 1], "samples": n}


def layer_summary(traced: list[dict], alloc: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced repetitions) and each span's share of self time."""
    per_rep = []
    imports, selfs = [], {}
    for rep in traced:
        merged: dict[str, float] = {}
        for trace in rep["traces"]:
            for name, value in tracer.layer_metrics(trace).items():
                merged[name] = merged.get(name, 0.0) + value
            imports.append(trace["import_s"])
            for name, value in tracer.self_seconds(trace).items():
                selfs[name] = selfs.get(name, 0.0) + value
        per_rep.append(merged)
    metrics = {name: statistics.median(rep.get(name, 0.0) for rep in per_rep)
               for name in tracer.LAYER_UNITS if name != "trace.overhead_s"}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["dynamics.peak_alloc_mb"] = statistics.median(
        max(t["peak_alloc_mb"] for t in rep["traces"]) for rep in alloc)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    busy = sum(selfs.values())  # thread time: sweep workers overlap in wall time
    shares = {name: s / busy for name, s in sorted(selfs.items(), key=lambda kv: -kv[1])}
    shares["dynamics (build_chain + eigensolve + run_trajectory)"] = sum(
        shares.get(f"dynamics.{n}", 0.0) for n in ("build_chain", "eigensolve", "run_trajectory"))
    return metrics, shares


def measure(workload, seconds: float, trace: bool, references: dict[str, str] | None,
            min_reps: int = MIN_REPS, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; return the result object and the detail record."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        for name, text in workload.configs.items():
            (workdir / name).write_text(text)
        measure_setup(workload, workdir, 1)  # untimed: fills the bytecode and file caches
        setup = [] if trace else measure_setup(workload, workdir, setup_repeats)

        reps = []
        start = time.perf_counter()
        rounds = 0
        while True:
            begin = time.perf_counter()
            modes = ("plain", "spans") if trace else ("plain",)
            for mode in modes + (("alloc",) if trace and rounds == 0 else ()):
                reps.append(run_rep(workload, workdir, mode, references))
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= (1 if trace else min_reps) and elapsed + (time.perf_counter() - begin) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    untraced = [r for r in reps if r["mode"] == "plain"]
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "invocations": [" ".join(inv.args) for inv in workload.invocations],
        "configs": workload.configs,
        "error_rate": failed / attempted,
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "wall_s_samples": [r["wall_s"] for r in untraced],
        "wall_s_tail": tail([r["wall_s"] for r in untraced]),
        "setup_s_samples": setup,
        "machine": machine(),
    }
    if trace:
        complete = {mode: [r for r in reps if r["mode"] == mode and len(r["traces"]) == r["attempted"]]
                    for mode in ("spans", "alloc")}
        if not all(complete.values()):
            raise RuntimeError(f"no traced repetition completed: {detail['problems']}")
        metrics, detail["self_time_shares"] = layer_summary(complete["spans"], complete["alloc"], untraced)
        units = tracer.LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        }
        units = E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, detail


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded (numpy and scipy bundle their own)."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                found[Path(lib).name] = getattr(handle, symbol)()
                break
    return found


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rabichain" / "cli.py").is_file():
        print(f"perfbench: no rabichain sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    references = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads((BENCH / "reference_hashes.json").read_text())
        references = recorded["hashes"][args.workload]

    result, detail = measure(workloads.make_workload(args.workload, args.seed), args.seconds,
                             bool(args.trace), references)
    print(json.dumps(dict(detail, seed=args.seed, trace=args.trace)))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
