"""TSV writers: the row-template formatter writes what a per-value f-string writes."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rabichain.dynamics import run_trajectory
from rabichain.model import FullState, RabiParams
from rabichain.output import (
    _BLOCK_VALUES,
    _table_text,
    intensity_map_text,
    sweep_summary_text,
    timeseries_text,
)

# 9.999999999995e-05 lies just below its 12-digit half-way point and rounds
# down; 9.9999999999996e-05 rounds up to the next decade.
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 9.999999999995e-05, 9.9999999999996e-05, 1.0, -1.0]


def per_value_text(header, rows):
    """The writers' output format, one f-string per value."""
    lines = [header] + ["\t".join(f"{v:.11e}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_edge_values_format_like_the_f_string():
    table = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
    text = "".join(_table_text("h", table))
    assert text == per_value_text("h", table.tolist())
    # the edge cases are what they claim to be
    assert "1.00000000000e-300" in text
    assert "9.99999999999e-05" in text
    assert "1.00000000000e-04" in text
    assert "-0.00000000000e+00" in text


def test_empty_table_is_the_header_line():
    assert _table_text("a\tb", np.empty((0, 2))) == ["a\tb\n"]


@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        min_size=1,
        max_size=40,
    )
)
def test_any_finite_floats_format_like_the_f_string(rows):
    assert "".join(_table_text("x\ty\tz", np.array(rows))) == per_value_text("x\ty\tz", rows)


def table_matches_per_value_text(table):
    text = "".join(_table_text("h", table))
    assert text == per_value_text("h", table.tolist())
    return text


def test_trailing_zero_columns_format_like_the_f_string():
    table = np.zeros((5, 6))
    table[:, :2] = [[0.25, 1e-300]] * 5
    text = table_matches_per_value_text(table)
    assert text.splitlines()[1].endswith("\t0.00000000000e+00" * 4)


def test_negative_zero_in_a_trailing_column_keeps_its_sign():
    table = np.zeros((4, 5))
    table[:, 0] = 1.5
    table[2, 4] = -0.0
    text = table_matches_per_value_text(table)
    assert text.splitlines()[3].endswith("\t-0.00000000000e+00")
    assert text.count("-0.00000000000e+00") == 1


def test_all_zero_table_formats_like_the_f_string():
    table_matches_per_value_text(np.zeros((3, 4)))


def test_zero_column_in_the_middle_formats_like_the_f_string():
    table = np.arange(1.0, 21.0).reshape(4, 5)
    table[:, 2] = 0.0
    table_matches_per_value_text(table)


def test_blocks_with_different_live_widths_format_like_the_f_string():
    cols = 300
    rows_per_block = _BLOCK_VALUES // cols
    table = np.zeros((4 * rows_per_block + 5, cols))
    rng = np.random.default_rng(0)
    table[:rows_per_block] = rng.normal(size=(rows_per_block, cols))           # full width
    table[rows_per_block:2 * rows_per_block, :200] = 1e-17                     # 200 live
    # block 3 is all zeros
    table[3 * rows_per_block:, 0] = rng.normal(size=rows_per_block + 5)      # 1 live
    table[-1, -1] = -0.0                                                       # ...and -0.0
    assert len(_table_text("h", table)) == 1 + 5                              # header + 5 blocks
    table_matches_per_value_text(table)


def test_writers_match_per_value_tables():
    n = 24
    params = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=n)
    traj = run_trajectory(params, FullState.basis_state("e", 0, n), 30.0, 0.05)
    nt = traj.t_grid.shape[0]

    ts_rows = [
        (traj.t_grid[k], traj.p_e[k], traj.p_g[k], traj.p_r[k], traj.mean_n[k])
        for k in range(nt)
    ]
    assert "".join(timeseries_text(traj)) == per_value_text("t_mm\tP_e\tP_g\tP_r\tmean_n", ts_rows)

    map_rows = [(traj.t_grid[k], *traj.pnt[k]) for k in range(nt)]
    header = "t_mm\t" + "\t".join(f"P{j}" for j in range(n))
    assert "".join(intensity_map_text(traj)) == per_value_text(header, map_rows)


def test_sweep_summary_matches_per_value_table():
    rows = [(-0.3, 0.25, 0.5, 3.75), (0.1234, 1e-300, 0.0, 12.0)]
    header = "omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n"
    assert "".join(sweep_summary_text(rows)) == per_value_text(header, rows)
