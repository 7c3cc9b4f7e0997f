"""TSV writers: the row-template formatter writes what a per-value f-string writes."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rabichain.dynamics import run_trajectory
from rabichain.model import FullState, RabiParams
from rabichain.output import (
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
    text = _table_text("h", table)
    assert text == per_value_text("h", table.tolist())
    # the edge cases are what they claim to be
    assert "1.00000000000e-300" in text
    assert "9.99999999999e-05" in text
    assert "1.00000000000e-04" in text
    assert "-0.00000000000e+00" in text


def test_empty_table_is_the_header_line():
    assert _table_text("a\tb", np.empty((0, 2))) == "a\tb\n"


@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        min_size=1,
        max_size=40,
    )
)
def test_any_finite_floats_format_like_the_f_string(rows):
    assert _table_text("x\ty\tz", np.array(rows)) == per_value_text("x\ty\tz", rows)


def test_writers_match_per_value_tables():
    n = 24
    params = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=n)
    traj = run_trajectory(params, FullState.basis_state("e", 0, n), 30.0, 0.05)
    nt = traj.t_grid.shape[0]

    ts_rows = [
        (traj.t_grid[k], traj.p_e[k], traj.p_g[k], traj.p_r[k], traj.mean_n[k])
        for k in range(nt)
    ]
    assert timeseries_text(traj) == per_value_text("t_mm\tP_e\tP_g\tP_r\tmean_n", ts_rows)

    map_rows = [(traj.t_grid[k], *traj.pnt[k]) for k in range(nt)]
    header = "t_mm\t" + "\t".join(f"P{j}" for j in range(n))
    assert intensity_map_text(traj) == per_value_text(header, map_rows)


def test_sweep_summary_matches_per_value_table():
    rows = [(-0.3, 0.25, 0.5, 3.75), (0.1234, 1e-300, 0.0, 12.0)]
    header = "omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n"
    assert sweep_summary_text(rows) == per_value_text(header, rows)
