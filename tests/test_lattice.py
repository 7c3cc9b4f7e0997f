"""Calibration inversion, gradient formula, and the full design procedure."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from rabichain.lattice import (
    RECIPE_COLUMNS,
    CouplingCalibration,
    CouplingRangeError,
    FabricationError,
    LatticeRecipe,
    OpticalConstants,
    design,
    format_recipe,
    gradient_omega,
    parse_recipe,
    spacing_for_coupling,
    verify_recipe,
)
from rabichain.model import RabiParams

DSC = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=15)
CAL = CouplingCalibration()
OC = OpticalConstants()


# ---------------------------------------------------------------------------
# calibration and spacing inversion
# ---------------------------------------------------------------------------

def test_default_calibration_anchors():
    assert CAL.kappa0 == 0.15
    assert CAL.d_ref == 14.0
    assert CAL.gamma == pytest.approx(0.1784, abs=1e-4)
    # decreasing on the validity window
    d = np.linspace(CAL.d_min, CAL.d_max, 50)
    assert np.all(np.diff(CAL.kappa(d)) < 0)


def test_calibration_window_past_the_float_range_is_zero_to_inf():
    # kappa_max = kappa0 exp(8e308) and kappa_min = kappa0 exp(-1e308), with no overflow warning
    cal = CouplingCalibration(kappa0=0.15, gamma=1e308, d_ref=14.0, d_min=6.0, d_max=15.0)
    assert cal.kappa_min == 0.0
    assert cal.kappa_max == np.inf
    assert CAL.kappa_max == float(CAL.kappa(CAL.d_min))
    assert CAL.kappa_min == float(CAL.kappa(CAL.d_max))


def test_zero_coupling_is_out_of_range_when_the_window_reaches_zero():
    # kappa(1e308 um) underflows to 0.0: a zero target is not below it, and has no spacing
    cal = CouplingCalibration(kappa0=0.15, gamma=0.18, d_ref=14.0, d_min=6.0, d_max=1e308)
    assert cal.kappa_min == 0.0
    with pytest.raises(CouplingRangeError, match="below weakest achievable"):
        spacing_for_coupling(cal, 0.0)


def test_spacing_for_weakest_target_coupling():
    assert spacing_for_coupling(CAL, 0.15) == pytest.approx(14.0, abs=1e-12)


def test_spacing_for_strongest_target_coupling():
    kappa = 0.15 * np.sqrt(14.0)  # strongest hop of the 15-guide array
    assert spacing_for_coupling(CAL, kappa) == pytest.approx(6.6, abs=1e-12)


def test_spacing_roundtrip_is_exact_inversion():
    kappa = CAL.kappa0 * np.exp(CAL.gamma * 1.0)
    d = spacing_for_coupling(CAL, kappa)
    assert d == pytest.approx(CAL.d_ref - 1.0, abs=1e-12)
    assert float(CAL.kappa(d)) == pytest.approx(kappa, rel=1e-12)


def test_spacing_range_errors_name_the_bound():
    with pytest.raises(CouplingRangeError, match="d_min"):
        spacing_for_coupling(CAL, 10.0)
    with pytest.raises(CouplingRangeError, match="d_max"):
        spacing_for_coupling(CAL, 1e-4)


def test_bad_calibrations_rejected():
    with pytest.raises(ValueError):
        CouplingCalibration(kappa0=-0.1, gamma=0.1, d_ref=14, d_min=6, d_max=15)
    with pytest.raises(ValueError):
        CouplingCalibration(kappa0=0.1, gamma=0.1, d_ref=14, d_min=15, d_max=6)


# ---------------------------------------------------------------------------
# gradient formula
# ---------------------------------------------------------------------------

def test_gradient_reproduces_device_frequency():
    # unit-conversion audit: mid-array spacing at the base index
    assert gradient_omega(OC, 10.39, 1.45) == pytest.approx(0.230, abs=1e-3)


def test_gradient_linearities():
    w = gradient_omega(OC, 10.0, 1.45)
    assert gradient_omega(OC, 20.0, 1.45) == pytest.approx(2 * w, rel=1e-12)
    oc2 = OpticalConstants(radius_mm=2 * OC.radius_mm)
    assert gradient_omega(oc2, 10.0, 1.45) == pytest.approx(w / 2, rel=1e-12)


def test_optical_constants_sanity_checks():
    with pytest.raises(ValueError, match="wavelength"):
        OpticalConstants(wavelength_nm=200.0)
    with pytest.raises(ValueError):
        OpticalConstants(radius_mm=-1.0)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_reference_design_spacings():
    recipe = design(DSC, CAL, OC, 15)
    spac = recipe.spacing_um[:-1]
    assert np.isnan(recipe.spacing_um[-1])
    assert spac.min() == pytest.approx(6.6, abs=1e-12)
    assert spac.max() == pytest.approx(14.0, abs=1e-12)
    assert np.all(np.diff(spac) < 0)  # kappa grows, spacing shrinks
    assert recipe.position_um[0] == 0.0
    assert recipe.position_um[1:] == pytest.approx(np.cumsum(spac))


def test_reference_design_speeds_and_uniformity():
    recipe = design(DSC, CAL, OC, 15)
    assert np.all(recipe.writing_speed_mm_s >= 10.0)
    assert np.all(recipe.writing_speed_mm_s <= 14.0)
    # compensated gradient uniform at the target
    assert recipe.achieved_omega_mm1[:-1] == pytest.approx(0.23, rel=1e-12)
    # effective step product n_eff * d uniform at omega R lambda / (2 pi)
    product = recipe.achieved_omega_mm1[:-1] * OC.radius_mm * OC.wavelength_mm / (2 * np.pi)
    assert np.abs(product / product[0] - 1.0).max() < 1e-6


def test_two_guide_design_hits_reference_spacing():
    p = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=15)
    recipe = design(p, CAL, OC, 2)
    assert recipe.spacing_um[0] == pytest.approx(14.0, abs=1e-12)


def test_detuning_modulation_magnitude():
    p = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=15)
    recipe = design(p, CAL, OC, 15)
    # index offset (omega0/2) lambda / (2 pi) = 4.03e-6, alternating sign
    det_index = recipe.achieved_detuning_mm1 * OC.wavelength_mm / (2 * np.pi)
    assert np.abs(det_index).max() == pytest.approx(4.03e-6, abs=1e-8)
    speed_offset = det_index / OC.dn_dv
    assert np.abs(speed_offset).max() == pytest.approx(0.2687, abs=1e-3)
    assert np.abs(speed_offset).max() <= 0.3
    signs = np.sign(recipe.achieved_detuning_mm1)
    assert np.array_equal(signs, (-1.0) ** np.arange(15))


def test_unachievable_coupling_names_first_bad_guide():
    p = RabiParams(omega0=0.0, omega=0.23, g=10.0, n_trunc=15)
    with pytest.raises(CouplingRangeError, match="guides 0-1"):
        design(p, CAL, OC, 15)


def test_speed_window_violation_raises():
    oc = OpticalConstants(v_base=11.0, v_min=10.9, v_max=11.1)
    with pytest.raises(FabricationError, match="guide"):
        design(DSC, CAL, oc, 15)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_design_self_consistency():
    recipe = design(DSC, CAL, OC, 15)
    report = verify_recipe(recipe, DSC, CAL, OC)
    assert report.max_rel_deviation < 1e-6
    assert report.spacing_in_validity
    text = report.to_text()
    assert "max relative deviation" in text


def test_verify_flags_perturbed_spacing():
    recipe = design(DSC, CAL, OC, 15)
    spacing = recipe.spacing_um.copy()
    spacing[4] += 0.5
    perturbed = replace(recipe, spacing_um=spacing)
    report = verify_recipe(perturbed, DSC, CAL, OC)
    expected = np.exp(-CAL.gamma * 0.5) - 1.0  # about -8.5 percent
    assert report.kappa_rel_dev[4] == pytest.approx(expected, rel=1e-9)
    assert report.kappa_rel_dev_max == pytest.approx(abs(expected), rel=1e-9)


def test_verify_uncompensated_trend_is_proportional_to_spacing():
    recipe = design(DSC, CAL, OC, 15)
    # zero out the gradient compensation, keep only the detuning part (none here)
    stripped = replace(
        recipe,
        delta_n_eff=np.zeros(recipe.n_guides),
        writing_speed_mm_s=np.full(recipe.n_guides, OC.v_base),
        achieved_detuning_mm1=np.zeros(recipe.n_guides),
    )
    report = verify_recipe(stripped, DSC, CAL, OC)
    d = recipe.spacing_um[:-1]
    w = report.achieved_omega
    # linear regression through the origin: R^2 > 0.999
    slope = np.sum(d * w) / np.sum(d * d)
    residual = w - slope * d
    r2 = 1.0 - np.sum(residual**2) / np.sum((w - w.mean()) ** 2)
    assert r2 > 0.999
    assert np.abs(report.uncompensated_omega - w).max() < 1e-12
    assert report.omega_rel_dev_max > 0.1  # visibly non-uniform without compensation


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_recipe_roundtrip():
    p = RabiParams(omega0=-0.08, omega=0.23, g=0.15, n_trunc=15)
    recipe = design(p, CAL, OC, 15)
    text = format_recipe(recipe)
    back = parse_recipe(text)
    assert back.n_guides == recipe.n_guides
    for f in fields(LatticeRecipe):
        a, b = getattr(recipe, f.name), getattr(back, f.name)
        assert np.allclose(a, b, rtol=1e-10, atol=1e-18, equal_nan=True)
    report = verify_recipe(back, p, CAL, OC)
    assert report.max_rel_deviation < 1e-6


def test_format_recipe_matches_a_per_value_rendering():
    recipe = design(DSC, CAL, OC, 15)
    columns = {f.name: np.array(getattr(recipe, f.name)) for f in fields(LatticeRecipe)}
    columns["position_um"][4] = np.nan      # an empty cell outside the last row
    columns["delta_n_eff"][0] = -0.0        # written as +0.0
    columns["writing_speed_mm_s"][2] = 1e-300   # a 3-digit exponent
    recipe = LatticeRecipe(**columns)
    lines = ["\t".join(RECIPE_COLUMNS)] + [
        "\t".join([str(n)] + ["" if np.isnan(c[n]) else f"{c[n] + 0.0:.11e}" for c in columns.values()])
        for n in range(recipe.n_guides)
    ]
    text = format_recipe(recipe)
    assert text == "\n".join(lines) + "\n"
    assert "\t\t" in text.splitlines()[5] and "\t0.00000000000e+00\t" in text.splitlines()[1]
    assert "-0.0" not in text


def test_recipe_columns_are_the_fields_and_n_guides_is_their_length():
    assert RECIPE_COLUMNS == ("guide", *(f.name for f in fields(LatticeRecipe)))
    columns = {f.name: np.arange(4.0) for f in fields(LatticeRecipe)}
    assert LatticeRecipe(**columns).n_guides == 4
    with pytest.raises(ValueError, match=r"position_um must have shape \(4,\), got \(4, 2\)"):
        LatticeRecipe(**{**columns, "position_um": np.zeros((4, 2))})
    with pytest.raises(ValueError, match=r"achieved_omega_mm1 must have shape \(4,\), got \(3,\)"):
        LatticeRecipe(**{**columns, "achieved_omega_mm1": np.zeros(3)})


def test_parse_recipe_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        parse_recipe("hello\n1\t2\n")


@pytest.mark.parametrize("guides", [0, 1])
def test_parse_recipe_refuses_fewer_than_two_guides(guides):
    text = format_recipe(design(DSC, CAL, OC, 2))
    with pytest.raises(ValueError, match=f"at least 2 guide rows, got {guides}"):
        parse_recipe("".join(text.splitlines(keepends=True)[:1 + guides]))


def test_parse_recipe_refuses_an_empty_field_but_the_last_rows_step_quantities():
    rows = [row.split("\t") for row in format_recipe(design(DSC, CAL, OC, 15)).splitlines()]
    assert [name for name, cell in zip(RECIPE_COLUMNS, rows[-1]) if not cell] == [
        "spacing_um", "achieved_kappa_mm1", "achieved_omega_mm1"]
    for i, j in [(3, 1), (0, 4), (14, 1), (14, 7), (7, 2), (7, 6)]:
        emptied = [row.copy() for row in rows]
        emptied[1 + i][j] = ""
        text = "".join("\t".join(row) + "\n" for row in emptied)
        with pytest.raises(ValueError, match=f"recipe row {i}: {RECIPE_COLUMNS[j]} is empty"):
            parse_recipe(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_recipe_refuses_a_non_finite_field(value):
    rows = [row.split("\t") for row in format_recipe(design(DSC, CAL, OC, 15)).splitlines()]
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row if cell)
    for i, name in [(2, "position_um"), (3, "writing_speed_mm_s"), (14, "spacing_um")]:
        changed = [row.copy() for row in rows]
        changed[1 + i][RECIPE_COLUMNS.index(name)] = value
        text = "".join("\t".join(row) + "\n" for row in changed)
        with pytest.raises(ValueError, match=f"recipe row {i}: {name} is not finite: '{value}'"):
            parse_recipe(text)
