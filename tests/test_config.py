"""Strict config parsing: schema, invariants, error naming."""

import re
from dataclasses import dataclass, fields

import numpy as np
import pytest

from rabichain import config
from rabichain.config import ConfigError, load_config, parse_config
from rabichain.lattice import CouplingCalibration, OpticalConstants
from rabichain.model import RabiParams

MINIMAL = """
[model]
omega0 = 0
omega = 0.23
g = 0.15
n_trunc = 64
initial = e0

[grid]
t_max = 60
dt = 0.1
"""


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.params.omega == 0.23
    assert cfg.params.g == 0.15
    assert cfg.params.n_trunc == 64
    assert cfg.t_max == 60.0
    assert cfg.dt == 0.1
    assert cfg.initial.amp_e[0] == 1.0
    assert cfg.outputs == {"timeseries", "intensity_map"}
    assert cfg.design is None


def test_zero_omega_rejected_with_bound():
    with pytest.raises(ConfigError, match="omega.*must be > 0"):
        parse_config(MINIMAL.replace("omega = 0.23", "omega = 0"))


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="omega_zero"):
        parse_config(MINIMAL.replace("omega0 = 0", "omega_zero = 0"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[extras\]"):
        parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")


def test_config_file_that_is_not_utf8_is_refused_by_name(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"[model]\nomega=0.23\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file .*latin1.cfg"):
        load_config(path)


def test_syntax_error_reported_with_line():
    with pytest.raises(ConfigError, match="syntax"):
        parse_config("[model\nomega = 1\n")


@pytest.mark.parametrize("text, message", [
    ("omega = 0.23\n" + MINIMAL, "line 1: no [section] header before 'omega = 0.23'"),
    ("[model\nomega = 1\n", "line 1: no [section] header before '[model'"),
    (MINIMAL.replace("g = 0.15", "g = 0.15\ng = 0.2"), "line 6: key 'g' is set twice in [model]"),
    (MINIMAL + "[grid]\n", "line 12: section [grid] appears twice"),
    (MINIMAL.replace("g = 0.15", "g = 0.15\n= 0.2"), "line 6: neither a [section] header nor key = value"),
], ids=["key-before-header", "unclosed-header", "key-twice", "section-twice", "no-key"])
def test_a_syntax_error_is_one_line_naming_its_line_not_the_parsers_source(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"syntax error: {message}"


def test_a_config_file_saved_with_a_byte_order_mark_reads_as_without(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.lstrip().encode("ascii"))
    assert load_config(path).params == parse_config(MINIMAL).params


def test_bad_number_names_key():
    with pytest.raises(ConfigError, match="model.g"):
        parse_config(MINIMAL.replace("g = 0.15", "g = fifteen"))


def test_initial_fock_index_bounds():
    with pytest.raises(ConfigError, match="n_trunc"):
        parse_config(MINIMAL.replace("initial = e0", "initial = g99"))
    with pytest.raises(ConfigError, match="initial"):
        parse_config(MINIMAL.replace("initial = e0", "initial = x2"))
    # a digit to str.isdigit() that int() does not parse
    with pytest.raises(ConfigError, match="model.initial"):
        parse_config(MINIMAL.replace("initial = e0", "initial = e\u00b2"))


def test_ground_state_label():
    cfg = parse_config(MINIMAL.replace("initial = e0", "initial = g3"))
    assert cfg.initial.amp_g[3] == 1.0


def test_explicit_amplitude_lists():
    text = MINIMAL.replace(
        "initial = e0",
        "initial_e = 0.6, 0\ninitial_g = 0, 0.8j",
    )
    cfg = parse_config(text)
    assert cfg.initial.amp_e[0] == pytest.approx(0.6)
    assert cfg.initial.amp_g[1] == pytest.approx(0.8j)


@pytest.mark.parametrize("lines, key, field", [
    ("initial_e = 0,,1", "initial_e", 2),      # would put the excitation on |e,1>, not |e,2>
    ("initial_e = ,1", "initial_e", 1),        # would put it on |e,0>
    ("initial_e = 1,", "initial_e", 2),
    ("initial_e = 0\ninitial_g = 0, ,1", "initial_g", 2),
])
def test_an_empty_amplitude_field_is_refused_by_key_and_position(lines, key, field):
    with pytest.raises(ConfigError, match=rf"^model\.{key}: field {field} is empty"):
        parse_config(MINIMAL.replace("initial = e0", lines))


def test_an_empty_amplitude_list_is_all_zeros():
    cfg = parse_config(MINIMAL.replace("initial = e0", "initial_e =\ninitial_g = 0, 0, 1"))
    assert not cfg.initial.amp_e.any()
    assert cfg.initial.amp_g[2] == 1.0


def test_amplitude_list_must_be_normalized():
    text = MINIMAL.replace("initial = e0", "initial_e = 0.5, 0.5")
    with pytest.raises(ConfigError, match="not normalized"):
        parse_config(text)


def test_label_and_lists_are_exclusive():
    text = MINIMAL.replace("initial = e0", "initial = e0\ninitial_e = 1")
    with pytest.raises(ConfigError, match="exclusive"):
        parse_config(text)


def test_outputs_whitelist():
    ok = parse_config(MINIMAL + "\n[output]\noutputs = timeseries\n")
    assert ok.outputs == {"timeseries"}
    with pytest.raises(ConfigError, match="unknown key 'dir' in \\[output\\]"):   # --out sets it
        parse_config(MINIMAL + "\n[output]\noutputs = timeseries\ndir = x\n")
    for kind in ("plots", "recipe"):   # design writes its recipe whatever outputs says
        with pytest.raises(ConfigError, match=f"unknown kind '{kind}'"):
            parse_config(MINIMAL + f"\n[output]\noutputs = timeseries, {kind}\n")


def test_design_section_defaults_and_overrides():
    cfg = parse_config(MINIMAL + "\n[design]\nn_guides = 15\n")
    assert cfg.design is not None
    assert cfg.design.n_guides == 15
    assert cfg.design.calibration.d_ref == 14.0
    assert cfg.design.optics.n_eff_base == 1.45
    over = parse_config(MINIMAL + "\n[design]\nn_guides = 7\nn_eff_base = 1.5\nd_ref = 12\n")
    assert over.design.calibration.d_ref == 12.0
    assert over.design.optics.n_eff_base == 1.5


def test_design_invariants_surface_as_config_errors():
    with pytest.raises(ConfigError, match="wavelength"):
        parse_config(MINIMAL + "\n[design]\nn_guides = 15\nwavelength_nm = 10\n")


def test_grid_keys_are_optional_and_not_checked_against_each_other():
    # each command checks the grid it runs; sweep and design never read grid.t_max
    cfg = parse_config(MINIMAL.split("[grid]")[0])
    assert cfg.t_max is None and cfg.dt is None
    cfg = parse_config(MINIMAL.replace("t_max = 60", "t_max = 0.05"))
    assert (cfg.t_max, cfg.dt) == (0.05, 0.1)
    with pytest.raises(ConfigError, match="grid.t_max: must be > 0"):
        parse_config(MINIMAL.replace("t_max = 60", "t_max = 0"))


SCHEMA = [(RabiParams, "model"), (CouplingCalibration, "design"), (OpticalConstants, "design")]
DESIGN = "\n[design]\nn_guides = 15\n"


def _held(cfg):
    return {RabiParams: cfg.params, CouplingCalibration: cfg.design.calibration,
            OpticalConstants: cfg.design.optics}


FIELDS = [(cls, section, f) for cls, section in SCHEMA for f in fields(cls)]


@pytest.mark.parametrize("cls, section, field", FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, _, f in FIELDS])
def test_every_dataclass_field_is_a_key_parsed_to_its_annotated_type(cls, section, field):
    kind = {"int": int, "float": float}[field.type]
    value = getattr(_held(parse_config(MINIMAL + DESIGN))[cls], field.name)
    value = value + 1 if kind is int else value * (1 + 2**-30) + 2**-30   # off its default
    if section == "model":   # MINIMAL sets every model key
        text = re.sub(rf"(?m)^{field.name} = .*$", f"{field.name} = {value!r}", MINIMAL) + DESIGN
    else:
        text = MINIMAL + DESIGN + f"{field.name} = {value!r}\n"
    parsed = getattr(_held(parse_config(text))[cls], field.name)
    assert type(parsed) is kind
    assert parsed == value


def test_a_field_annotated_other_than_int_or_float_is_not_parsed():
    @dataclass(frozen=True)
    class Flags:
        scale: "float" = 1.0
        enabled: "bool" = False

    with pytest.raises(TypeError, match="Flags.enabled: no config parser for annotation 'bool'"):
        config._fields(Flags, "flags", {"scale": "2", "enabled": "1"})
    with pytest.raises(TypeError, match="Flags.enabled"):   # also when the section leaves it unset
        config._fields(Flags, "flags", {})


def test_a_missing_required_field_is_named_and_defaults_fill_in():
    with pytest.raises(ConfigError, match=r"^model\.g is required$"):
        parse_config(MINIMAL.replace("g = 0.15\n", ""))
    assert parse_config(MINIMAL.replace("omega0 = 0\n", "")).params.omega0 == 0.0
    assert config._fields(CouplingCalibration, "design", {"d_ref": "12"}) == {"d_ref": 12.0}
