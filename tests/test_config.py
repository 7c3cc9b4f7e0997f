"""Strict config parsing: schema, invariants, error naming."""

import numpy as np
import pytest

from rabichain.config import ConfigError, load_config, parse_config

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


def test_amplitude_list_must_be_normalized():
    text = MINIMAL.replace("initial = e0", "initial_e = 0.5, 0.5")
    with pytest.raises(ConfigError, match="not normalized"):
        parse_config(text)


def test_label_and_lists_are_exclusive():
    text = MINIMAL.replace("initial = e0", "initial = e0\ninitial_e = 1")
    with pytest.raises(ConfigError, match="exclusive"):
        parse_config(text)


def test_outputs_whitelist():
    ok = parse_config(MINIMAL + "\n[output]\noutputs = timeseries\ndir = x\n")
    assert ok.outputs == {"timeseries"}
    assert str(ok.output_dir) == "x"
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
