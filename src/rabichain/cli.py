"""Command-line driver: simulate | sweep | design | validate.

All commands are pure functions of the configuration file; repeated runs
produce byte-identical outputs.  Exit codes: 0 success, 1 usage/config
error, 2 numeric/feasibility error, 3 validation failure, 128 + the signal
number when a SIGINT (130) or SIGTERM (143) stops the command.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

# OpenBLAS sizes its worker pool when it loads, and every worker it starts
# spins while idle, a quarter of a short run's CPU time.  Where the CLI is the
# program, numpy's OpenBLAS loads at one thread and starts none; a process
# that loaded numpy first keeps its environment and its pools.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (loads numpy's OpenBLAS)

from .blas import one_thread
from .config import ConfigError, RunConfig, check_memory, list_fields, load_config, parse_number
from .dynamics import (
    TRUNCATION_OCCUPANCY,
    EigendecompositionError,
    grid_points,
    time_grid,
    top_occupancy,
    trajectory_blocks,
)
from .lattice import (
    RECIPE_DEVIATION_TOL,
    CouplingRangeError,
    FabricationError,
    design,
    format_recipe,
    verify_recipe,
)
from .model import FullState, RabiParams
from .output import (
    TIMESERIES_HEADER,
    intensity_map_header,
    intensity_map_pgm,
    intensity_map_rows,
    new_files,
    sweep_summary_text,
    timeseries_rows,
    write_text,
)
from .validate import run_validation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

SWEEP_DEFAULT_DT = 0.05
SIMULATE_DEFAULT_DT = 0.1

class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1 here, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _check_grid(params: RabiParams, t_max: float, dt: float, grid: str, runs: int = 1,
                keep_map: bool = False) -> None:
    """Raise ConfigError, before anything is allocated, for a grid the run cannot hold.

    That is a step longer than the grid, phases lambda t that overflow
    (|lambda| is at most the chain's Gershgorin bound), or ``runs`` runs at
    once past physical memory (``config.check_memory``); ``grid`` names the
    keys that set the grid.
    """
    if t_max < dt:
        raise ConfigError(f"{grid}: the step is longer than the grid, dt must be <= {t_max!r}")
    top = params.n_trunc - 1
    bound = abs(params.omega0) / 2 + top * params.omega + 2 * params.g * math.sqrt(top)
    if not math.isfinite(bound * t_max):
        raise ConfigError(
            f"{grid}: the phases lambda t overflow, |lambda| <= {bound:.6g} mm^-1 "
            f"at omega0 = {params.omega0!r}"
        )
    points = grid_points(t_max, dt)
    at_once = f" for {runs} sweep points at once" if runs > 1 else ""
    check_memory(f"{grid}: {points:.3g} grid points x n_trunc = {params.n_trunc}{at_once}",
                 n_trunc=params.n_trunc, points=points, runs=runs, keep_map=keep_map)


def cmd_simulate(cfg: RunConfig, out_dir: Path, image: bool) -> int:
    if cfg.t_max is None:
        raise ConfigError("grid.t_max is required by simulate")
    if not cfg.outputs and not image:
        raise ConfigError("output.outputs is empty and --image is not set: nothing to write")
    dt = cfg.dt if cfg.dt is not None else SIMULATE_DEFAULT_DT
    _check_grid(cfg.params, cfg.t_max, dt, f"grid.t_max = {cfg.t_max!r}, grid.dt = {dt!r}",
                keep_map=image)
    n, t_grid = cfg.params.n_trunc, time_grid(cfg.t_max, dt)
    top, reached = 0.0, None   # the map's reached sites, kept for the raster only

    # Two stages: this thread evolves block k+1 while one writer thread formats and writes
    # block k.  The files, the raster too, are renamed into place only when all are written.
    blocks = trajectory_blocks(cfg.params, cfg.initial, t_grid)   # a failed eigensolve writes nothing
    with new_files() as create, ThreadPoolExecutor(max_workers=1) as writer:
        timeseries = tsv_map = None
        if "timeseries" in cfg.outputs:
            timeseries = create(out_dir / "timeseries.tsv")
            timeseries.write(TIMESERIES_HEADER)
        if "intensity_map" in cfg.outputs:
            tsv_map = create(out_dir / "intensity_map.tsv")
            tsv_map.write(intensity_map_header(n))

        def write(cols, pop, p_e, p_r, mean_n):
            if timeseries is not None:
                timeseries.writelines(timeseries_rows(t_grid[cols], p_e, p_r, mean_n))
            if tsv_map is not None:
                tsv_map.writelines(intensity_map_rows(n, t_grid[cols], pop))

        written = None
        for block in blocks:
            cols, pop = block[:2]
            top = max(top, top_occupancy(pop, n))
            if image:
                if reached is None:
                    reached = np.zeros((pop.shape[0], t_grid.shape[0]))
                reached[:, cols] = pop
            if written is not None:
                written.result()   # one block in flight; a failed write raises here
            written = writer.submit(write, *block)
            del block, pop   # the writer holds the block now, and frees it when it is written
        # the raster is built while the writer formats the last block
        raster = intensity_map_pgm(reached, n) if image else None
        del reached
        written.result()
        if image:
            create(out_dir / "intensity_map.pgm").write(raster)
    if top > TRUNCATION_OCCUPANCY:
        print(f"note: truncation-contaminated run, top-site occupancy {top:.3e}", file=sys.stderr)
    return EXIT_OK


def _sweep_point(params: RabiParams, omega0: float, t_grid: np.ndarray):
    """One sweep point over ``t_grid``, using the device convention for signed omega0.

    ``params`` is the model with |omega0|; the sign selects the initial
    state (excited for omega0 >= 0, ground otherwise).  The two choices
    excite the two different parity chains, so the signed value reaches
    both.  min P_r, min population, max <n> and the top-site occupancy are
    folded block by block; ``np.minimum`` and ``np.maximum`` keep a nan, as
    a whole-grid min does.  Returns the sweep.tsv row and that occupancy.
    """
    excited = omega0 >= 0
    initial = FullState.basis_state("e" if excited else "g", 0, params.n_trunc)
    min_p_r = min_population = np.inf
    max_mean_n = -np.inf
    top = 0.0
    for _, pop, p_e, p_r, mean_n in trajectory_blocks(params, initial, t_grid):
        min_p_r = np.minimum(min_p_r, p_r.min())
        min_population = np.minimum(min_population, (p_e if excited else 1.0 - p_e).min())
        max_mean_n = np.maximum(max_mean_n, mean_n.max())
        top = max(top, top_occupancy(pop, params.n_trunc))
    return (omega0, float(min_p_r), float(min_population), float(max_mean_n)), top


def cmd_sweep(cfg: RunConfig, omega0_list: str, out_dir: Path, jobs: int) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {jobs}")
    fields = list_fields("--omega0-list", omega0_list)
    if not fields:
        raise ConfigError("sweep needs a non-empty --omega0-list")
    signed, models = [], []
    for field in fields:   # every value is checked before any point runs
        signed.append(parse_number(float, "--omega0-list", field))
        try:
            models.append(replace(cfg.params, omega0=abs(signed[-1])))
        except ValueError as exc:
            raise ConfigError(f"--omega0-list: value {signed[-1]!r}: {exc}") from None
    dt = cfg.dt if cfg.dt is not None else SWEEP_DEFAULT_DT
    t_bounce = 2.0 * math.pi / cfg.params.omega
    runs = min(jobs, len(models))
    _check_grid(
        max(models, key=lambda p: p.omega0), t_bounce, dt,   # the largest |omega0| bounds every point
        f"grid.dt = {dt!r} over one bounce period 2*pi/omega = {t_bounce:.6g} mm "
        f"(sweep does not read grid.t_max)",
        runs=runs,
    )
    t_grid = time_grid(t_bounce, dt)
    with ThreadPoolExecutor(max_workers=runs) as pool:
        points = list(pool.map(lambda p, v: _sweep_point(p, v, t_grid), models, signed))
    write_text(out_dir / "sweep.tsv", sweep_summary_text([row for row, _ in points]))
    for (omega0, *_), top in points:
        if top > TRUNCATION_OCCUPANCY:
            print(f"note: truncation-contaminated sweep point omega0 = {omega0!r}, "
                  f"top-site occupancy {top:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_design(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.design is None:
        raise ConfigError("design command needs a [design] section in the config")
    # extreme design constants can overflow the recipe arithmetic: that is an error, not a warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            recipe = design(cfg.params, cfg.design.calibration, cfg.design.optics,
                            cfg.design.n_guides)
            report = verify_recipe(recipe, cfg.params, cfg.design.calibration, cfg.design.optics)
        except FloatingPointError as exc:
            raise FabricationError(f"the recipe arithmetic fails: {exc}") from None
    if not report.max_rel_deviation <= RECIPE_DEVIATION_TOL:   # nan fails too
        raise FabricationError(
            f"the recipe misses its targets: max relative deviation "
            f"{report.max_rel_deviation:.6e}, bound {RECIPE_DEVIATION_TOL:.0e}"
        )
    with new_files() as create:
        create(out_dir / "recipe.tsv").write(format_recipe(recipe).encode("ascii"))
        create(out_dir / "recipe_report.txt").write(report.to_text().encode("ascii"))
    return EXIT_OK


def cmd_validate() -> int:
    report = run_validation()
    print(report.to_text(), end="")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rabichain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "sweep", "design"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to run configuration")
        p.add_argument("--out", default="out", help="output directory")
        if name == "simulate":
            p.add_argument("--image", action="store_true", help="also emit a grayscale PGM map")
        if name == "sweep":
            p.add_argument(
                "--omega0-list", required=True,
                help="comma-separated signed omega0 values, mm^-1",
            )
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers, >= 1")

    sub.add_parser("validate")
    return parser


def _stop(signum, frame):
    """End the command with exit code 128 + signum; every ``new_files`` block removes its temporaries."""
    for s in (signal.SIGINT, signal.SIGTERM):   # a second signal cannot cut the clean-up short
        signal.signal(s, signal.SIG_IGN)
    print(f"stopped by {signal.Signals(signum).name}", file=sys.stderr)
    raise SystemExit(128 + signum)


@contextmanager
def _stopped_by_signals():
    """SIGINT and SIGTERM call ``_stop`` in the block, on the main thread; the old handlers after."""
    on_main = threading.current_thread() is threading.main_thread()   # only it can set handlers
    previous = {s: signal.signal(s, _stop) for s in (signal.SIGINT, signal.SIGTERM)} if on_main else {}
    try:
        yield
    finally:
        for s, handler in previous.items():   # None: a handler not set from Python
            signal.signal(s, signal.SIG_DFL if handler is None else handler)


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code.

    Every command runs numpy's OpenBLAS at one thread (``blas.one_thread``), so
    the output bytes depend on neither the CPU count nor OPENBLAS_NUM_THREADS;
    the sweep pool, whose eigensolves release the GIL, and simulate's writer
    thread are the parallelism.  Where this module was imported before numpy,
    numpy's OpenBLAS loaded at one thread and started no worker; one_thread
    holds any other caller to one thread and restores its count after.  A numpy
    whose OpenBLAS lacks the LAPACK the eigensolves call fails them with exit 2.
    On the main thread a SIGINT or SIGTERM ends the command through ``_stop``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    with _stopped_by_signals(), one_thread():
        try:
            if args.command == "validate":
                return cmd_validate()

            if not args.out:   # Path("") is the current directory
                raise ConfigError("--out: the output directory is empty")
            cfg = load_config(args.config)
            out_dir = Path(args.out)
            if args.command == "simulate":
                return cmd_simulate(cfg, out_dir, args.image)
            if args.command == "sweep":
                return cmd_sweep(cfg, args.omega0_list, out_dir, args.jobs)
            return cmd_design(cfg, out_dir)   # the parser admits no other command
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (CouplingRangeError, FabricationError, EigendecompositionError) as exc:
            print(f"numeric/feasibility error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except ImportError as exc:   # blas: numpy's OpenBLAS exports no dstevd or dsyevr
            print(f"library error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
