"""Strict parsing of the sectioned key-value run configuration.

Every key is validated against a fixed schema: unknown sections or keys
are rejected by name, and every physical invariant violation reports the
offending key together with the violated bound.  See the README for the
full key reference.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dynamics import BLOCK_POINTS, MIN_TAIL_POINTS
from .lattice import CouplingCalibration, OpticalConstants
from .model import FullState, RabiParams
from .output import _BLOCK_VALUES

OUTPUT_KINDS = ("timeseries", "intensity_map")

_MODEL_KEYS = {f.name for f in fields(RabiParams)} | {"initial", "initial_e", "initial_g"}
_GRID_KEYS = {"t_max", "dt"}
_OUTPUT_KEYS = {"outputs", "dir"}
_DESIGN_KEYS = {"n_guides"} | {
    f.name for cls in (CouplingCalibration, OpticalConstants) for f in fields(cls)
}
_SECTIONS = {
    "model": _MODEL_KEYS,
    "grid": _GRID_KEYS,
    "output": _OUTPUT_KEYS,
    "design": _DESIGN_KEYS,
}


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


# Upper bounds on the bytes a command holds at once, counted from the code.
#
# Every run is a stream of blocks (dynamics.trajectory_blocks), here for
# two occupied chains that reach every site.  Per run and n_trunc^2 (32):
# the two chains' float eigenvector matrices, or the rows of them that an
# evolution keeps (16), plus either build_chain's two float verification
# temporaries or the complex copy of the rows that a product casts (16).
# Per run and site and point of the largest block (64): the complex
# right-hand side, its two complex phase temporaries and the other chain's
# complex product; to_branches' output next to both products; or the
# amplitudes next to the observables' temporaries and the block's
# per-point observables.  Once per command: the grid, per point (8).
MATRIX_BYTES = 32
BLOCK_CELL_BYTES = 64
POINT_BYTES = 8
LARGEST_BLOCK = BLOCK_POINTS + MIN_TAIL_POINTS - 1
# The output phase, which holds no table's text whole.  Per map cell, for
# simulate --image only: the map P(n, t) of the reached sites (8) and the
# PGM raster's float and uint8 copies (16).  Once: the block the writer
# thread formats while the next block is evolved, its P(n, t) per site and
# point of the largest block (8); and the text block being encoded by
# output.format_rows, _BLOCK_VALUES at most, each held as a float in the
# block (8), five float or int64 arrays (the live columns' copy, |x|, e, m
# and the digits; 40), two bool masks (2), its 20-byte cell of uint32
# words, the cell's keep mask, the kept bytes and their str (80).
MAP_CELL_BYTES = 24
WRITTEN_CELL_BYTES = 8
FORMAT_BLOCK_BYTES = (8 + 40 + 2 + 80) * _BLOCK_VALUES
# design, per guide.  Arrays: lattice.design's 13 float arrays while the
# recipe copies 7 of them (160), then the recipe and the report's 9 arrays
# (128) with verify_recipe's list of Python floats and temporaries (64).
# Text, with the recipe and report held: a table is a list of row strings
# (row length + 57 each), their join and its encoding, 3 x row length + 57.
# recipe.tsv rows are at most 8 fields of 20 characters (160), and encoding
# them peaks at 7 x 130 bytes (FORMAT_BLOCK_BYTES' count); the report's rows,
# which set the figure, at most 710 (two fixed-point fields of 317).
GUIDE_BYTES = 128 + 3 * 710 + 57


def _physical_memory_bytes() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to check against
        return math.inf


def check_memory(
    key: str, n_trunc: int = 0, points: float = 0, runs: int = 1, n_guides: int = 0,
    keep_map: bool = False,
) -> float:
    """Bytes held at once by ``runs`` block streams over one ``points``-point grid, or by a design.

    ``keep_map`` is True for the one run that keeps the map P(n, t) and
    its raster (simulate --image).  Raises ConfigError naming ``key`` when
    they exceed physical memory; call it before anything of that size is
    allocated.
    """
    # floats: a count past 2^64 is refused all the same, a negative one elsewhere
    n, guides = (float(min(max(count, 0), 2**64)) for count in (n_trunc, n_guides))
    cells = points * n if keep_map else 0.0
    block = n * min(points, LARGEST_BLOCK)
    need = (runs * (MATRIX_BYTES * n * n + BLOCK_CELL_BYTES * block)
            + GUIDE_BYTES * guides
            + (POINT_BYTES * points + MAP_CELL_BYTES * cells + WRITTEN_CELL_BYTES * block
               + FORMAT_BLOCK_BYTES if points else 0))
    physical = _physical_memory_bytes()
    if need > physical:
        raise ConfigError(f"{key}: the run needs about {need / 2**30:.3g} GiB, more than "
                          f"the {physical / 2**30:.3g} GiB of physical memory")
    return need


@dataclass(frozen=True)
class DesignConfig:
    calibration: CouplingCalibration
    optics: OpticalConstants
    n_guides: int


@dataclass(frozen=True)
class RunConfig:
    params: RabiParams
    initial: FullState
    t_max: float | None           # None: not set, which only simulate refuses
    dt: float | None              # None: command-specific default applies
    outputs: frozenset[str]
    output_dir: Path
    design: DesignConfig | None


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    return value


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None


def _amplitudes(section: str, key: str, raw: str, n_trunc: int) -> np.ndarray:
    out = np.zeros(n_trunc, dtype=complex)
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if len(items) > n_trunc:
        raise ConfigError(
            f"{section}.{key}: {len(items)} amplitudes exceed n_trunc = {n_trunc}"
        )
    for i, item in enumerate(items):
        try:
            out[i] = complex(item)
        except ValueError:
            raise ConfigError(f"{section}.{key}: bad complex number: {item!r}") from None
    return out


def _build_initial(section: dict[str, str], params: RabiParams) -> FullState:
    has_label = "initial" in section
    has_lists = "initial_e" in section or "initial_g" in section
    if has_label and has_lists:
        raise ConfigError("model.initial and model.initial_e/initial_g are exclusive")
    if has_lists:
        amp_e = _amplitudes("model", "initial_e", section.get("initial_e", ""), params.n_trunc)
        amp_g = _amplitudes("model", "initial_g", section.get("initial_g", ""), params.n_trunc)
        try:
            return FullState(amp_e, amp_g)
        except ValueError as exc:
            raise ConfigError(f"model.initial_e/initial_g: {exc}") from None
    label = section.get("initial", "e0").strip()
    branch, idx = label[:1], label[1:]
    if branch not in ("e", "g") or not (idx.isascii() and idx.isdigit()):
        raise ConfigError(
            f"model.initial: expected a qubit branch plus Fock index "
            f"(e.g. 'e0', 'g3'), got {label!r}"
        )
    m = int(idx)
    if m >= params.n_trunc:
        raise ConfigError(
            f"model.initial: Fock index {m} must be < n_trunc = {params.n_trunc}"
        )
    return FullState.basis_state(branch, m, params.n_trunc)


def _with_design_keys(default, section: dict[str, str]):
    """``default`` with every field that [design] sets replaced, parsed in field order."""
    return replace(default, **{
        f.name: _float("design", f.name, section[f.name])
        for f in fields(default) if f.name in section
    })


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    # no header can name a section "\n", so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {exc}") from None

    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _SECTIONS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    if not parser.has_section("model"):
        raise ConfigError("missing required section [model]")
    model = dict(parser["model"])
    for key in ("omega", "g", "n_trunc"):
        if key not in model:
            raise ConfigError(f"model.{key} is required")

    omega = _float("model", "omega", model["omega"])
    g = _float("model", "g", model["g"])
    n_trunc = _int("model", "n_trunc", model["n_trunc"])
    omega0 = _float("model", "omega0", model.get("omega0", "0"))
    check_memory("model.n_trunc", n_trunc=n_trunc)
    try:
        params = RabiParams(omega0=omega0, omega=omega, g=g, n_trunc=n_trunc)
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from None
    initial = _build_initial(model, params)

    # both optional here: each command checks the grid it runs (cli._check_grid)
    grid = dict(parser["grid"]) if parser.has_section("grid") else {}
    steps = {}
    for key in ("t_max", "dt"):
        if key in grid:
            value = steps[key] = _float("grid", key, grid[key])
            if not value > 0:
                raise ConfigError(f"grid.{key}: must be > 0, got {value}")

    out = dict(parser["output"]) if parser.has_section("output") else {}
    if "outputs" in out:
        kinds = [s.strip() for s in out["outputs"].split(",") if s.strip()]
        for kind in kinds:
            if kind not in OUTPUT_KINDS:
                raise ConfigError(
                    f"output.outputs: unknown kind {kind!r}, expected one of {OUTPUT_KINDS}"
                )
        outputs = frozenset(kinds)
    else:
        outputs = frozenset(OUTPUT_KINDS)
    output_dir = Path(out.get("dir", "out"))

    design = None
    if parser.has_section("design"):
        d = dict(parser["design"])
        if "n_guides" not in d:
            raise ConfigError("design.n_guides is required when [design] is present")
        n_guides = _int("design", "n_guides", d["n_guides"])
        if n_guides < 2:
            raise ConfigError(f"design.n_guides: must be >= 2, got {n_guides}")
        check_memory("design.n_guides", n_guides=n_guides)
        try:
            cal = _with_design_keys(CouplingCalibration(), d)
            oc = _with_design_keys(OpticalConstants(), d)
        except ValueError as exc:
            raise ConfigError(f"design: {exc}") from None
        design = DesignConfig(calibration=cal, optics=oc, n_guides=n_guides)

    return RunConfig(
        params=params,
        initial=initial,
        t_max=steps.get("t_max"),
        dt=steps.get("dt"),
        outputs=outputs,
        output_dir=output_dir,
        design=design,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
