"""The README's config reference and library example against the package."""

import re
from pathlib import Path

from rabichain.config import _SECTIONS, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_config_reference_table_lists_exactly_the_schema_keys():
    section_text = README.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    table = section_text.split("|---|---|---|\n", 1)[1]   # the rows below the header
    documented = set()
    for row in re.findall(r"^\| *([a-z_]+\.[^|]*?) *\|", table, flags=re.MULTILINE):
        section, keys = row.split(".", 1)   # "design.kappa0, gamma", "model.initial_e / initial_g"
        documented |= {(section, key.strip()) for key in re.split(r"[,/]", keys)}
    assert documented == {(section, key) for section, keys in _SECTIONS.items() for key in keys}


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_example_configuration_parses():
    blocks = re.findall(r"^```ini\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert (cfg.params.omega, cfg.t_max, cfg.design.n_guides) == (0.23, 60.0, 15)
