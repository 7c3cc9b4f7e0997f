"""Strict parsing of the sectioned key-value run configuration.

Every key is validated against a fixed schema: unknown sections or keys
are rejected by name, and every physical invariant violation reports the
offending key together with the violated bound.  The [model] and [design]
numbers are the fields of ``RabiParams``, ``CouplingCalibration`` and
``OpticalConstants``: :func:`_fields` reads each by its name, parses it by
its annotation and knows it is required from its missing default, and the
bounds are those dataclasses' own checks.  See the README for the full key
reference.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import BLOCK_POINTS, MIN_TAIL_POINTS
from .lattice import CouplingCalibration, OpticalConstants
from .model import FullState, RabiParams
from .output import _BLOCK_VALUES

OUTPUT_KINDS = ("timeseries", "intensity_map")

_SECTIONS = {
    "model": {f.name for f in fields(RabiParams)} | {"initial", "initial_e", "initial_g"},
    "grid": {"t_max", "dt"},
    "output": {"outputs"},
    "design": {"n_guides"} | {
        f.name for cls in (CouplingCalibration, OpticalConstants) for f in fields(cls)
    },
}


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


# Upper bounds on the bytes a command holds at once, counted from the code.
#
# Every run is a stream of blocks (dynamics.trajectory_blocks), here for
# two occupied chains that reach every site.  Per run and n_trunc^2 (32):
# the two chains' float eigenvector matrices, or the (reach, K') blocks an
# evolution keeps (16), plus one transient (16): the complex cast of V in
# build_chain's coefficient product V^T psi(0), the set-up peak (24 MB
# traced at n_trunc 1024 with the other chain empty); build_chain's
# n x live verification temporaries over the band of live columns it
# checks (band <= n), two floats or the reconstruction residual's complex
# cast of the band; or a product's complex cast of a block, reach x K' <= n^2.
# Per run and site and point of the largest block (64): the complex
# right-hand side, its complex phase buffer with the float product it is
# built from, and the other chain's complex product (56); to_branches'
# output next to both products; or the amplitudes next to the
# observables' temporaries and the block's per-point observables.  Once
# per command: the grid, per point (8).
MATRIX_BYTES = 32
BLOCK_CELL_BYTES = 64
POINT_BYTES = 8
LARGEST_BLOCK = BLOCK_POINTS + MIN_TAIL_POINTS - 1
# The output phase, which holds no table's text whole.  For simulate --image
# only: per map cell, the map P(n, t) of the reached sites (8) and the PGM
# file's one uint8 buffer, header and raster (1); and once, the float chunk
# of the map that output.intensity_map_pgm scales at a time, _BLOCK_VALUES
# values or one row of the grid, whichever is longer (8 each).  Once: the
# block the writer thread formats while the next block is evolved, its
# P(n, t) per site and point of the largest block (8); and the text block
# being encoded by output.format_rows, _BLOCK_VALUES at most, each held as
# a float in the block (8), five float or int64 arrays (|x|, e, m, its
# rounding and the digits; 40), two bool masks (2), and its 20-byte cell
# of uint32 words, the cells' bytes copy and the bytes left once the NUL
# padding is translated away (60).
MAP_CELL_BYTES = 9
RASTER_CHUNK_BYTES = 8
WRITTEN_CELL_BYTES = 8
FORMAT_BLOCK_BYTES = (8 + 40 + 2 + 60) * _BLOCK_VALUES
# design, per guide.  Arrays: lattice.design's 13 float arrays while the
# recipe copies 7 of them (160), then the recipe and the report's 8 arrays
# (120) with verify_recipe's list of Python floats and temporaries (64).
# Text, with the recipe and report held: a table is a list of row strings
# (row length + 57 each), their join and its encoding, 3 x row length + 57.
# recipe.tsv rows are at most 8 fields of 20 characters (160), and encoding
# them peaks at 7 x 110 bytes (format_rows' count above); the report's rows,
# which set the figure, at most 710 (two fixed-point fields of 317).
GUIDE_BYTES = 120 + 3 * 710 + 57


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
    cells, chunk = (points * n, max(points, _BLOCK_VALUES)) if keep_map else (0.0, 0.0)
    block = n * min(points, LARGEST_BLOCK)
    need = (runs * (MATRIX_BYTES * n * n + BLOCK_CELL_BYTES * block)
            + GUIDE_BYTES * guides
            + (POINT_BYTES * points + MAP_CELL_BYTES * cells + RASTER_CHUNK_BYTES * chunk
               + WRITTEN_CELL_BYTES * block + FORMAT_BLOCK_BYTES if points else 0))
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
    design: DesignConfig | None


def parse_number(kind: type, key: str, raw: str):
    """``kind(raw)``, for ``kind`` int, float or complex, or a ConfigError naming ``key``.  A
    number is ASCII: Python's parsers read any Unicode digit, Arabic-Indic 16 as 16 too."""
    try:
        if raw.isascii():
            return kind(raw)
    except ValueError:
        pass
    what = {int: "not an integer", float: "not a number", complex: "bad complex number"}[kind]
    raise ConfigError(f"{key}: {what}: {raw!r}")


def _float(section: str, key: str, raw: str) -> float:
    value = parse_number(float, f"{section}.{key}", raw)
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    return value


def _int(section: str, key: str, raw: str) -> int:
    return parse_number(int, f"{section}.{key}", raw)


def list_fields(key: str, raw: str) -> list[str]:
    """The stripped fields of the comma list ``raw``, none for a blank one.  An empty field
    would shift those after it if dropped: it is a ConfigError naming ``key`` and its position."""
    items = [s.strip() for s in raw.split(",")] if raw.strip() else []
    for i, item in enumerate(items):
        if not item:
            raise ConfigError(f"{key}: field {i + 1} is empty")
    return items


def _amplitudes(key: str, raw: str, n_trunc: int) -> np.ndarray:
    out = np.zeros(n_trunc, dtype=complex)
    items = list_fields(f"model.{key}", raw)   # blank: all zeros
    if len(items) > n_trunc:
        raise ConfigError(f"model.{key}: {len(items)} amplitudes exceed n_trunc = {n_trunc}")
    for i, item in enumerate(items):
        out[i] = parse_number(complex, f"model.{key}", item)
    return out


def _build_initial(section: dict[str, str], params: RabiParams) -> FullState:
    has_lists = "initial_e" in section or "initial_g" in section
    if has_lists and "initial" in section:
        raise ConfigError("model.initial and model.initial_e/initial_g are exclusive")
    if has_lists:
        amps = [_amplitudes(key, section.get(key, ""), params.n_trunc)
                for key in ("initial_e", "initial_g")]
        try:
            return FullState(*amps)
        except ValueError as exc:
            raise ConfigError(f"model.initial_e/initial_g: {exc}") from None
    label = section.get("initial", "e0").strip()
    if not (label[1:].isascii() and label[1:].isdigit()):
        raise ConfigError(f"model.initial: expected a qubit branch plus Fock index "
                          f"(e.g. 'e0', 'g3'), got {label!r}")
    try:
        return FullState.basis_state(label[:1], int(label[1:]), params.n_trunc)
    except ValueError as exc:
        raise ConfigError(f"model.initial: {exc}") from None


def _fields(cls, section: str, values: dict[str, str]) -> dict:
    """The fields of dataclass ``cls`` set in ``[section]``, each parsed by its annotation (int
    or float; another raises TypeError).  An unset field takes the class default; one without
    a default is required, a ConfigError naming ``section.field``."""
    out = {}
    for f in fields(cls):
        parse = {"int": _int, "float": _float}.get(f.type)
        if parse is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no config parser for annotation {f.type!r}")
        if f.name in values:
            out[f.name] = parse(section, f.name, values[f.name])
        elif f.default is MISSING:
            raise ConfigError(f"{section}.{f.name} is required")
    return out


def _syntax_error(exc: configparser.Error) -> str:
    """What ``ConfigParser.read_string`` refused, in one line that names its line number."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: no [section] header before {exc.line.strip()!r}"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: key {exc.option!r} is set twice in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] appears twice"
    lineno = exc.errors[0][0]   # a ParsingError: its first line that is neither of the two
    return f"line {lineno}: neither a [section] header nor key = value"


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    # no header can name a section "\n", so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {_syntax_error(exc)}") from None

    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _SECTIONS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    if not parser.has_section("model"):
        raise ConfigError("missing required section [model]")
    model = dict(parser["model"])
    values = _fields(RabiParams, "model", {"omega0": "0", **model})
    check_memory("model.n_trunc", n_trunc=values["n_trunc"])
    try:
        params = RabiParams(**values)
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
    kinds = list_fields("output.outputs", out.get("outputs", ",".join(OUTPUT_KINDS)))
    for kind in kinds:
        if kind not in OUTPUT_KINDS:
            raise ConfigError(
                f"output.outputs: unknown kind {kind!r}, expected one of {OUTPUT_KINDS}"
            )
    outputs = frozenset(kinds)

    design = None
    if parser.has_section("design"):
        d = dict(parser["design"])
        if "n_guides" not in d:
            raise ConfigError("design.n_guides is required when [design] is present")
        n_guides = _int("design", "n_guides", d["n_guides"])
        if n_guides < 2:
            raise ConfigError(f"design.n_guides: must be >= 2, got {n_guides}")
        check_memory("design.n_guides", n_guides=n_guides)
        cal, oc = (_fields(cls, "design", d) for cls in (CouplingCalibration, OpticalConstants))
        try:
            cal, oc = CouplingCalibration(**cal), OpticalConstants(**oc)
        except ValueError as exc:
            raise ConfigError(f"design: {exc}") from None
        design = DesignConfig(calibration=cal, optics=oc, n_guides=n_guides)

    return RunConfig(
        params=params,
        initial=initial,
        t_max=steps.get("t_max"),
        dt=steps.get("dt"),
        outputs=outputs,
        design=design,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")   # a BOM is not a syntax error
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
