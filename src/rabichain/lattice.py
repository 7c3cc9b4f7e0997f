"""Map model parameters to a waveguide-array fabrication recipe.

Units are fixed per field and never inferred: spacings in um, wavelength
in nm, curvature radius in mm, frequencies in mm^-1, writing speeds in
mm/s.  All conversions happen inside :func:`gradient_omega` and the
detuning formula.

:class:`LatticeRecipe`'s fields name their units and are, by name, the
columns of ``recipe.tsv`` after the guide index (``RECIPE_COLUMNS``).

Design chain:

* couplings kappa_n = g sqrt(n+1) are realized by spacings through an
  exponential evanescent-coupling calibration kappa(d) = kappa0 *
  exp(-gamma (d - d_ref));
* the circular curvature tilts the index profile, giving a bare
  propagation-constant increment 2 pi n_eff d_n / (R lambda) between
  neighbours n and n+1; because the d_n are non-uniform this increment
  varies across the array, so per-guide effective-index offsets are
  accumulated to pull every increment to the uniform target omega
  (guide 0 is anchored at the base index);
* the qubit splitting omega0 is an extra alternating index offset
  +/- (omega0/2) lambda / (2 pi) on even/odd guides;
* index offsets map to writing speeds through the calibration rate
  dn_eff/dv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .model import RabiParams, coupling_ladder
from .output import format_rows

RECIPE_DEVIATION_TOL = 1e-6   # max relative deviation of a recipe that `design` writes


class CouplingRangeError(ValueError):
    """Requested coupling is not achievable inside the spacing window."""


class FabricationError(ValueError):
    """Recipe violates a fabrication constraint (e.g. writing-speed window)."""


@dataclass(frozen=True)
class CouplingCalibration:
    """Exponential coupling-vs-spacing law kappa(d) = kappa0 exp(-gamma (d-d_ref)).

    kappa0 : coupling at the reference spacing, mm^-1
    gamma  : decay rate, um^-1
    d_ref  : reference spacing, um
    d_min, d_max : validity window of the law, um

    The defaults anchor kappa = 0.15 mm^-1 at 14 um and kappa = 0.15 sqrt(14)
    (the strongest coupling of a 15-guide array at g = 0.15) at 6.6 um.
    """

    kappa0: float = 0.15
    gamma: float = math.log(math.sqrt(14.0)) / (14.0 - 6.6)
    d_ref: float = 14.0
    d_min: float = 6.0
    d_max: float = 15.0

    def __post_init__(self):
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be > 0, got {self.kappa0}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not self.d_min < self.d_max:
            raise ValueError(
                f"validity interval is empty: d_min={self.d_min}, d_max={self.d_max}"
            )

    def kappa(self, d_um):
        """Coupling at spacing d (um) -> mm^-1."""
        return self.kappa0 * np.exp(-self.gamma * (np.asarray(d_um) - self.d_ref))


@dataclass(frozen=True)
class OpticalConstants:
    """Optical and process constants of the curved-array platform.

    n_eff_base    : base effective index (dimensionless)
    wavelength_nm : operating wavelength, nm
    radius_mm     : curvature radius R, mm
    dn_dv         : effective-index change per writing-speed change, s/mm
    v_base        : nominal writing speed, mm/s
    v_min, v_max  : admissible writing-speed window, mm/s
    """

    n_eff_base: float = 1.45
    wavelength_nm: float = 633.0
    radius_mm: float = 650.0
    dn_dv: float = 1.5e-5
    v_base: float = 11.0
    v_min: float = 9.5
    v_max: float = 14.5

    def __post_init__(self):
        for name in ("n_eff_base", "wavelength_nm", "radius_mm", "dn_dv", "v_base"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 400.0 <= self.wavelength_nm <= 1600.0:
            raise ValueError(
                f"wavelength_nm {self.wavelength_nm} outside sanity window [400, 1600]"
            )
        if not self.v_min < self.v_max:
            raise ValueError(f"empty speed window [{self.v_min}, {self.v_max}]")

    @property
    def wavelength_mm(self) -> float:
        return self.wavelength_nm * 1e-6


def spacing_for_coupling(cal: CouplingCalibration, kappa: float) -> float:
    """Invert the calibration: the spacing (um) in [d_min, d_max] that realizes a coupling (mm^-1)."""
    if not kappa / cal.kappa0 > 0:   # no finite spacing gives a zero coupling
        raise CouplingRangeError(
            f"kappa = {kappa!r} mm^-1 has no spacing: kappa / kappa0 = {kappa / cal.kappa0!r} is not > 0")
    d = cal.d_ref - math.log(kappa / cal.kappa0) / cal.gamma
    if not cal.d_min <= d <= cal.d_max:
        side, bound = ("below d_min", cal.d_min) if d < cal.d_min else ("above d_max", cal.d_max)
        raise CouplingRangeError(f"kappa = {kappa!r} mm^-1 needs spacing {d!r} um, {side} = {bound} um")
    return d


def gradient_omega(oc: OpticalConstants, d_um) -> float:
    """Curvature-induced propagation-constant increment over one spacing at the base index.

    omega = 2 pi n_eff_base d / (R lambda), with d in um, lambda in nm, R in
    mm, returned in mm^-1.
    """
    d_mm = np.asarray(d_um) * 1e-3
    return 2.0 * math.pi * oc.n_eff_base * d_mm / (oc.radius_mm * oc.wavelength_mm)


@dataclass(frozen=True)
class LatticeRecipe:
    """Per-guide fabrication table for an N-guide array, N = ``n_guides``.

    Each field is the ``recipe.tsv`` column of its name, N floats; the step
    quantities (``"step"`` in their field metadata) are NaN on the last row.

    position_um           : absolute transverse position, guide 0 at the origin
    spacing_um            : center-to-center distance to the next guide
    delta_n_eff           : total effective-index offset from the base index
                            (gradient compensation + alternating detuning)
    writing_speed_mm_s    : v_base + delta_n_eff / dn_dv
    achieved_kappa_mm1    : coupling realized by spacing_um
    achieved_omega_mm1    : compensated propagation-constant increment
    achieved_detuning_mm1 : alternating diagonal term realized on this guide
    """

    position_um: np.ndarray
    spacing_um: np.ndarray = field(metadata={"step": True})
    delta_n_eff: np.ndarray
    writing_speed_mm_s: np.ndarray
    achieved_kappa_mm1: np.ndarray = field(metadata={"step": True})
    achieved_omega_mm1: np.ndarray = field(metadata={"step": True})
    achieved_detuning_mm1: np.ndarray

    def __post_init__(self):
        guides = np.shape(self.position_um)[:1]
        for f in fields(self):
            arr = np.array(getattr(self, f.name), dtype=float)   # a copy the recipe owns
            if arr.ndim != 1 or arr.shape != guides:
                raise ValueError(f"{f.name} must have shape {guides}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)

    @property
    def n_guides(self) -> int:
        return self.position_um.shape[0]


RECIPE_COLUMNS = ("guide", *(f.name for f in fields(LatticeRecipe)))


def design(
    params: RabiParams,
    cal: CouplingCalibration,
    oc: OpticalConstants,
    n_guides: int,
) -> LatticeRecipe:
    """Full design: spacings, index compensation, detuning, writing speeds.

    Raises :class:`CouplingRangeError` if any target coupling needs a spacing
    outside [d_min, d_max] (naming the first infeasible guide) and
    :class:`FabricationError` if a writing speed leaves [v_min, v_max].
    """
    if n_guides < 2:
        raise ValueError(f"need at least 2 guides, got {n_guides}")

    spacings = np.empty(n_guides - 1)
    for n, target in enumerate(coupling_ladder(params.g, n_guides).tolist()):
        try:
            spacings[n] = spacing_for_coupling(cal, target)
        except CouplingRangeError as exc:
            raise CouplingRangeError(
                f"coupling for guides {n}-{n + 1} infeasible: {exc}"
            ) from exc

    positions = np.concatenate([[0.0], np.cumsum(spacings)])

    # cumulative index compensation pulling every bare increment to omega;
    # guide 0 anchored at the base index
    omega_bare = gradient_omega(oc, spacings)
    increments = (params.omega - omega_bare) * oc.wavelength_mm / (2.0 * math.pi)
    delta_comp = np.concatenate([[0.0], np.cumsum(increments)])

    guides = np.arange(n_guides)
    delta_det = ((-1.0) ** guides) * (params.omega0 / 2.0) * oc.wavelength_mm / (2.0 * math.pi)
    delta_total = delta_comp + delta_det

    speeds = oc.v_base + delta_total / oc.dn_dv
    bad = np.where((speeds < oc.v_min) | (speeds > oc.v_max))[0]
    if bad.size:
        raise FabricationError(
            f"writing speed {speeds[bad[0]]:.4f} mm/s for guide {bad[0]} outside "
            f"window [{oc.v_min}, {oc.v_max}] mm/s"
        )

    # the achieved quantities, recomputed from the fabrication fields; NaN past the last step
    return LatticeRecipe(
        position_um=positions,
        spacing_um=np.append(spacings, np.nan),
        delta_n_eff=delta_total,
        writing_speed_mm_s=speeds,
        achieved_kappa_mm1=np.append(cal.kappa(spacings), np.nan),
        achieved_omega_mm1=np.append(
            omega_bare + np.diff(delta_comp) * 2.0 * math.pi / oc.wavelength_mm, np.nan),
        achieved_detuning_mm1=delta_det * 2.0 * math.pi / oc.wavelength_mm,
    )


@dataclass
class RecipeReport:
    """Deviations of a recipe from its design targets, plus the
    uncompensated gradient trend for comparison."""

    target_kappa: np.ndarray
    achieved_kappa: np.ndarray
    kappa_rel_dev: np.ndarray
    achieved_omega: np.ndarray
    omega_rel_dev: np.ndarray
    uncompensated_omega: np.ndarray
    target_detuning: np.ndarray
    detuning_dev: np.ndarray
    spacing_in_validity: bool
    max_rel_deviation: float = field(init=False)

    def __post_init__(self):
        devs = [self.kappa_rel_dev_max, self.omega_rel_dev_max]
        if np.abs(self.target_detuning).max() > 0:
            devs.append(
                np.abs(self.detuning_dev).max() / np.abs(self.target_detuning).max()
            )
        self.max_rel_deviation = float(max(devs))

    def to_text(self) -> str:
        lines = [
            "recipe verification report",
            f"  guides                : {self.target_detuning.shape[0]}",
            f"  max |kappa| rel dev   : {self.kappa_rel_dev_max:.6e}",
            f"  max |omega| rel dev   : {self.omega_rel_dev_max:.6e}",
            f"  max |detuning| dev    : {np.abs(self.detuning_dev).max():.6e} mm^-1",
            f"  spacings in validity  : {'yes' if self.spacing_in_validity else 'NO'}",
            f"  max relative deviation: {self.max_rel_deviation:.6e}",
            "",
            "  step  kappa_target  kappa_achieved  rel_dev      "
            "omega_bare  omega_achieved",
        ]
        for n in range(self.target_kappa.shape[0]):
            lines.append(
                f"  {n:4d}  {self.target_kappa[n]:.6e}  {self.achieved_kappa[n]:.6e}  "
                f"{self.kappa_rel_dev[n]:+.3e}  {self.uncompensated_omega[n]:.6f}    "
                f"{self.achieved_omega[n]:.6f}"
            )
        return "\n".join(lines) + "\n"

    @property
    def kappa_rel_dev_max(self) -> float:
        return float(np.abs(self.kappa_rel_dev).max())

    @property
    def omega_rel_dev_max(self) -> float:
        return float(np.abs(self.omega_rel_dev).max())


def verify_recipe(
    recipe: LatticeRecipe,
    params: RabiParams,
    cal: CouplingCalibration,
    oc: OpticalConstants,
) -> RecipeReport:
    """Recompute achieved couplings, gradient, and detuning from the recipe
    fields and report deviations from the design targets (report only,
    never raises on deviations)."""
    spacings = recipe.spacing_um[:-1]

    target_kappa = coupling_ladder(params.g, recipe.n_guides)
    achieved_kappa = np.asarray(cal.kappa(spacings), dtype=float)
    kappa_rel_dev = achieved_kappa / target_kappa - 1.0 if params.g > 0 else achieved_kappa * 0.0

    guides = np.arange(recipe.n_guides)
    target_det = ((-1.0) ** guides) * params.omega0 / 2.0
    delta_det = target_det * oc.wavelength_mm / (2.0 * math.pi)
    delta_comp = recipe.delta_n_eff - delta_det

    omega_bare = np.asarray(gradient_omega(oc, spacings), dtype=float)
    achieved_omega = omega_bare + np.diff(delta_comp) * 2.0 * math.pi / oc.wavelength_mm
    omega_rel_dev = achieved_omega / params.omega - 1.0

    detuning_dev = recipe.achieved_detuning_mm1 - target_det
    in_validity = bool(
        np.all((spacings >= cal.d_min - 1e-12) & (spacings <= cal.d_max + 1e-12))
    )
    return RecipeReport(
        target_kappa=target_kappa,
        achieved_kappa=achieved_kappa,
        kappa_rel_dev=kappa_rel_dev,
        achieved_omega=achieved_omega,
        omega_rel_dev=omega_rel_dev,
        uncompensated_omega=omega_bare,
        target_detuning=target_det,
        detuning_dev=detuning_dev,
        spacing_in_validity=in_validity,
    )


# ---------------------------------------------------------------------------
# Recipe serialization: one delimited row per guide, header with units
# ---------------------------------------------------------------------------

def format_recipe(recipe: LatticeRecipe) -> str:
    """The recipe table: the guide index, then the columns, each NaN as an empty cell."""
    table = np.column_stack([getattr(recipe, name) for name in RECIPE_COLUMNS[1:]])
    # + 0.0 folds IEEE -0.0 into +0.0; format_rows writes every NaN, of either sign, as nan
    rows = format_rows(table + 0.0).replace(b"nan", b"").decode("ascii").splitlines()
    return "\t".join(RECIPE_COLUMNS) + "\n" + "".join(f"{n}\t{row}\n" for n, row in enumerate(rows))


def parse_recipe(text: str) -> LatticeRecipe:
    """The recipe of a ``format_recipe`` table, as ``design`` shapes it: at least 2 guide
    rows, numbered in order, every field finite and none empty but the last row's step
    quantities."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split("\t")) != RECIPE_COLUMNS:
        raise ValueError("not a recipe table: bad or missing header row")
    rows = [ln.split("\t") for ln in lines[1:]]
    if len(rows) < 2:
        raise ValueError(f"a recipe table needs at least 2 guide rows, got {len(rows)}")
    cols = {f.name: np.full(len(rows), np.nan) for f in fields(LatticeRecipe)}
    for i, row in enumerate(rows):
        if len(row) != len(RECIPE_COLUMNS):
            raise ValueError(f"recipe row {i} has {len(row)} fields, expected {len(RECIPE_COLUMNS)}")
        if not (row[0].isascii() and row[0].isdigit() and int(row[0]) == i):
            raise ValueError(f"recipe row {i}: guide is {row[0]!r}, expected {i}")
        for f, value in zip(fields(LatticeRecipe), row[1:]):
            if value:
                cols[f.name][i] = number = float(value)
                if not math.isfinite(number):
                    raise ValueError(f"recipe row {i}: {f.name} is not finite: {value!r}")
            elif not (f.metadata.get("step") and i == len(rows) - 1):
                raise ValueError(f"recipe row {i}: {f.name} is empty")
    return LatticeRecipe(**cols)
