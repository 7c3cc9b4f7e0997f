"""The benchmark's workloads: generated configs, CLI invocations and output checks.

Every workload is one or more ``rabichain`` CLI invocations on configs made
here from the seed; the CLI sees only those files and flags.  Each
invocation carries the check its outputs must pass.  Checks return a list of
problems (empty when the output is correct) and run outside the timed
interval.  ``tiny=True`` shrinks every size so the self-test can drive the
same code path in seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rabichain import analytic
from rabichain.lattice import parse_recipe
from rabichain.model import RabiParams

OMEGA = 0.23
G = 0.15

# check(out_dir, stdout) -> problems
Check = Callable[[Path, str], list[str]]


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]   # arguments after `python -m rabichain.cli`, relative to the work dir
    out_dir: str | None     # directory the invocation writes, or None
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict[str, str]           # file name -> INI text, written into the work dir
    setup_config: str                 # the config that setup_s loads
    invocations: tuple[Invocation, ...]


def _config(omega0: float, n_trunc: int, t_max: float, dt: float | None = None,
            extra: str = "") -> str:
    grid = f"t_max = {t_max!r}\n" + (f"dt = {dt!r}\n" if dt is not None else "")
    return (
        f"[model]\nomega0 = {omega0!r}\nomega = {OMEGA!r}\ng = {G!r}\n"
        f"n_trunc = {n_trunc}\ninitial = e0\n\n[grid]\n{grid}{extra}"
    )


def _table(path: Path, header: str) -> tuple[np.ndarray, list[str]]:
    """Rows of a TSV file as a float array, or problems if it is malformed."""
    if not path.is_file():
        return np.empty((0, 0)), [f"{path.name}: missing"]
    text = path.read_text()
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return np.empty((0, 0)), [f"{path.name}: bad header {lines[:1]!r}"]
    try:
        rows = np.array([[float(v) for v in ln.split("\t")] for ln in lines[1:]])
    except ValueError as exc:
        return np.empty((0, 0)), [f"{path.name}: unparsable value: {exc}"]
    if rows.ndim != 2 or not np.all(np.isfinite(rows)):
        return np.empty((0, 0)), [f"{path.name}: ragged or non-finite rows"]
    return rows, []


def _within(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    dev = float(np.abs(got - want).max())
    return [] if dev <= tol else [f"{label}: max deviation {dev:.3e} > {tol:.0e}"]


TIMESERIES_HEADER = "t_mm\tP_e\tP_g\tP_r\tmean_n"


def _grid_points(t_max: float, dt: float) -> int:
    # the CLI's own grid rule (dynamics.run_trajectory)
    return int(math.floor(t_max / dt + 1e-9)) + 1


def map_export(rng: random.Random, tiny: bool) -> Workload:
    n, t_max, dt = (16, 6.0, 0.1) if tiny else (1024, 60.0, 0.01)
    params = RabiParams(omega0=0.0, omega=OMEGA, g=G, n_trunc=n)
    nt = _grid_points(t_max, dt)

    def check(out: Path, stdout: str) -> list[str]:
        rows, problems = _table(out / "timeseries.tsv", TIMESERIES_HEADER)
        if problems:
            return problems
        if rows.shape != (nt, 5):
            return [f"timeseries.tsv: shape {rows.shape}, expected {(nt, 5)}"]
        t = rows[:, 0]
        problems += _within("P_r vs lf_revival", rows[:, 3], analytic.lf_revival(params, t), 1e-6)
        problems += _within("<n> vs lf_mean_photon", rows[:, 4], analytic.lf_mean_photon(params, t), 1e-6)

        pgm = (out / "intensity_map.pgm").read_bytes()
        header = f"P5\n{nt} {n}\n255\n".encode()
        if not pgm.startswith(header) or len(pgm) != len(header) + nt * n:
            problems.append(f"intensity_map.pgm: header {pgm[:24]!r} or size {len(pgm)} wrong")

        with open(out / "intensity_map.tsv", "rb") as f:
            first = f.readline()
            lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 24), b""))
        columns = first.count(b"\t") + 1
        if columns != n + 1 or lines != nt + 1:
            problems.append(f"intensity_map.tsv: {columns} columns, {lines} lines")
        return problems

    return Workload(
        name="map_export",
        why=("the paper's intensity map at the largest chain: text formatting of the "
             "map in the output layer dominates, and omega0 = 0 lets closed forms check it"),
        configs={"map.cfg": _config(0.0, n, t_max, dt)},
        setup_config="map.cfg",
        invocations=(Invocation(
            ("simulate", "--config", "map.cfg", "--out", "out0", "--image"), "out0", check),),
    )


def checks(rng: random.Random, tiny: bool) -> Workload:
    """validate and design are fixed; the seed draws the sweep's 24 omega0 values."""
    n = 16 if tiny else 512
    values = [round(rng.uniform(-0.3, 0.3), 4) for _ in range(24)]

    def check_validate(out: Path, stdout: str) -> list[str]:
        return [] if stdout.endswith("overall: PASS\n") else ["validate: report does not end in overall: PASS"]

    def check_design(out: Path, stdout: str) -> list[str]:
        report = (out / "recipe_report.txt").read_text()
        devs = [float(ln.split(":")[1]) for ln in report.splitlines()
                if ln.strip().startswith("max relative deviation")]
        problems = [] if devs and devs[0] <= 1e-12 else [f"recipe: max relative deviation {devs}"]
        if parse_recipe((out / "recipe.tsv").read_text()).n_guides != 15:
            problems.append("recipe.tsv: expected 15 guides")
        return problems

    def check_sweep(out: Path, stdout: str) -> list[str]:
        rows, problems = _table(out / "sweep.tsv", "omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n")
        if problems:
            return problems
        if rows.shape != (len(values), 4):
            return [f"sweep.tsv: shape {rows.shape}, expected {(len(values), 4)}"]
        problems += _within("omega0 column", rows[:, 0], np.array(values), 1e-12)
        eps = 1e-12
        for col, label, hi in ((1, "min_P_r", 1.0), (2, "min_population", 1.0), (3, "max_mean_n", n - 1)):
            if not np.all((rows[:, col] >= -eps) & (rows[:, col] <= hi + eps)):
                problems.append(f"sweep.tsv: {label} outside [0, {hi}]")
        return problems

    omega0_list = ",".join(repr(v) for v in values)
    return Workload(
        name="checks",
        why=("validate, design, then a seeded 24-point sweep on 2 threads: the dense oracle, "
             "closed forms, lattice designer, repeated mid-size eigensolves and the sweep pool"),
        configs={"design.cfg": _config(0.04, 64, 1.0, extra="\n[design]\nn_guides = 15\n"),
                 "sweep.cfg": _config(0.0, n, 1.0)},
        setup_config="design.cfg",
        invocations=(
            Invocation(("validate",), None, check_validate),
            Invocation(("design", "--config", "design.cfg", "--out", "out1"), "out1", check_design),
            Invocation(("sweep", "--config", "sweep.cfg", "--out", "out2", "--jobs", "2",
                        f"--omega0-list={omega0_list}"), "out2", check_sweep),
        ),
    )


WORKLOADS = {f.__name__: f for f in (map_export, checks)}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(seed), tiny)

