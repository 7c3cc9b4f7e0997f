"""Command-line driver: simulate | sweep | design | validate.

All commands are pure functions of the configuration file; repeated runs
produce byte-identical outputs.  Exit codes: 0 success, 1 usage/config
error, 2 numeric/feasibility error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, check_memory, load_config
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
    sweep_summary_text,
    text_file,
    timeseries_rows,
    write_bytes,
    write_text,
)
from .validate import run_validation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

SWEEP_DEFAULT_DT = 0.05
SIMULATE_DEFAULT_DT = 0.1

_MAPS = "/proc/self/maps"   # where the loaded OpenBLAS libraries are listed
_OPENBLAS_THREADS = [   # (get, set) symbols: numpy's build, scipy's build, a plain build
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]


@contextmanager
def _blas_threads(n: int):
    """Cap every loaded OpenBLAS at n threads for the block, and restore the old counts after it.

    numpy and scipy each bundle their own OpenBLAS.  A count already below n
    (say, from ``OPENBLAS_NUM_THREADS``) is kept.  Nothing happens where
    /proc/self/maps cannot be read or lists no OpenBLAS.
    """
    import ctypes

    try:
        with open(_MAPS) as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    restore = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:   # a mapping whose file is gone
            continue
        for get, set_ in _OPENBLAS_THREADS:
            if hasattr(handle, get) and hasattr(handle, set_):
                old, setter = getattr(handle, get)(), getattr(handle, set_)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                restore.append((setter, old))
                setter(min(old, n))
                break
    try:
        yield
    finally:
        for setter, old in restore:
            setter(old)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


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
    # block k.  Every file is renamed into place only when the last block is written.
    with ExitStack() as stack:
        if "intensity_map" in cfg.outputs:   # formatting the map keeps a CPU busy: BLAS gets the rest
            stack.enter_context(_blas_threads(max(1, _usable_cpus() - 1)))
        blocks = trajectory_blocks(cfg.params, cfg.initial, t_grid)   # a failed eigensolve writes nothing
        timeseries = tsv_map = None
        if "timeseries" in cfg.outputs:
            timeseries = stack.enter_context(text_file(out_dir / "timeseries.tsv"))
            timeseries.write(TIMESERIES_HEADER)
        if "intensity_map" in cfg.outputs:
            tsv_map = stack.enter_context(text_file(out_dir / "intensity_map.tsv"))
            tsv_map.write(intensity_map_header(n))

        def write(cols, pop, p_e, p_r, mean_n):
            if timeseries is not None:
                timeseries.writelines(timeseries_rows(t_grid[cols], p_e, p_r, mean_n))
            if tsv_map is not None:
                tsv_map.writelines(intensity_map_rows(n, t_grid[cols], pop))

        writer = stack.enter_context(ThreadPoolExecutor(max_workers=1))
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
        written.result()
        if image:
            write_bytes(out_dir / "intensity_map.pgm", intensity_map_pgm(reached, n))
    if top > TRUNCATION_OCCUPANCY:
        print(f"note: truncation-contaminated run, top-site occupancy {top:.3e}", file=sys.stderr)
    return EXIT_OK


def _sweep_point(params: RabiParams, omega0: float, t_grid: np.ndarray):
    """One sweep point over ``t_grid``, using the device convention for signed omega0.

    ``params`` is the model with |omega0|; the sign selects the initial
    state (excited for omega0 >= 0, ground otherwise).  The two choices
    excite the two different parity chains, so the signed value reaches
    both.  min P_r, min population and max <n> are folded block by block;
    ``np.minimum`` and ``np.maximum`` keep a nan, as a whole-grid min does.
    """
    excited = omega0 >= 0
    initial = FullState.basis_state("e" if excited else "g", 0, params.n_trunc)
    min_p_r = min_population = np.inf
    max_mean_n = -np.inf
    for _, _, p_e, p_r, mean_n in trajectory_blocks(params, initial, t_grid):
        min_p_r = np.minimum(min_p_r, p_r.min())
        min_population = np.minimum(min_population, (p_e if excited else 1.0 - p_e).min())
        max_mean_n = np.maximum(max_mean_n, mean_n.max())
    return omega0, float(min_p_r), float(min_population), float(max_mean_n)


def cmd_sweep(cfg: RunConfig, omega0_list: list[float], out_dir: Path, jobs: int) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {jobs}")
    if not omega0_list:
        raise ConfigError("sweep needs a non-empty --omega0-list")
    models = []
    for v in omega0_list:   # every value is checked before any point runs
        try:
            models.append(replace(cfg.params, omega0=abs(v)))
        except ValueError as exc:
            raise ConfigError(f"--omega0-list: value {v!r}: {exc}") from None
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
    # one BLAS thread per worker, whatever --jobs is: the pool owns the parallelism, and at a
    # sweep point's sizes BLAS threads cost more CPU time than they save wall time
    with _blas_threads(1), ThreadPoolExecutor(max_workers=runs) as pool:
        rows = list(pool.map(lambda p, v: _sweep_point(p, v, t_grid), models, omega0_list))
    write_text(out_dir / "sweep.tsv", sweep_summary_text(rows))
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
    # both files are renamed into place only when both are written
    with text_file(out_dir / "recipe.tsv") as tsv, text_file(out_dir / "recipe_report.txt") as txt:
        tsv.write(format_recipe(recipe))
        txt.write(report.to_text())
    return EXIT_OK


def cmd_validate() -> int:
    with _blas_threads(1):   # at most 128 x 128 matrices: threads cost more than they gain
        report = run_validation()
    print(report.to_text(), end="")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rabichain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "sweep", "design"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("simulate", "sweep", "validate"):
        # the commands that solve load scipy now, not at their first eigensolve: its OpenBLAS
        # is then mapped when _blas_threads caps the threads, and the import's allocations
        # come before the large arrays (left to the first call, they raise the peak RSS)
        import scipy.linalg  # noqa: F401

    try:
        if args.command == "validate":
            return cmd_validate()

        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out is not None else cfg.output_dir
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.image)
        if args.command == "sweep":
            try:
                omega0_list = [float(s) for s in args.omega0_list.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"bad --omega0-list: {args.omega0_list!r}") from None
            return cmd_sweep(cfg, omega0_list, out_dir, args.jobs)
        if args.command == "design":
            return cmd_design(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CouplingRangeError, FabricationError, EigendecompositionError) as exc:
        print(f"numeric/feasibility error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
