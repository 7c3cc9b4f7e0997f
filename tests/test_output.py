"""TSV writers: the vectorised encoder writes what a per-value f-string or ``%`` writes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rabichain.dynamics import Trajectory, run_trajectory
from rabichain.model import FullState, RabiParams
from rabichain.output import (
    _BLOCK_VALUES,
    _table_text,
    format_rows,
    intensity_map_pgm,
    intensity_map_text,
    sweep_summary_text,
    timeseries_text,
    write_text,
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


# ---------------------------------------------------------------------------
# exactness of the vectorised encoder against "%.11e" % x
# ---------------------------------------------------------------------------

def percent_text(table):
    """Rows of ``table`` as the ``%`` conversion writes them, one value at a time."""
    return "".join("\t".join("%.11e" % v for v in row) + "\n" for row in table.tolist())


SPECIAL_BITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
     2.2250738585072014e-308, 1.7976931348623157e308],
).view(np.uint64).tolist()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.lists(
        st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS)),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=40,
    )
)
def test_any_float64_bit_pattern_encodes_like_percent(rows):
    # raw bit patterns: NaNs with any payload and sign, infinities, subnormals
    table = np.array(rows, dtype=np.uint64).view(np.float64)
    assert format_rows(table) == percent_text(table)


def test_a_million_random_doubles_encode_like_percent():
    # one _table_text call: 16 blocks of at most 2^16 values
    rng = np.random.default_rng(8)
    size = 5 * 10**5
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False).view(np.float64)
    lognormal = rng.lognormal(0.0, 40.0, size=size) * rng.choice([-1.0, 1.0], size=size)
    table = np.concatenate([bits, lognormal]).reshape(-1, 8)
    assert "".join(_table_text("h", table)) == "h\n" + percent_text(table)


def test_exact_ties_round_half_to_even():
    table = np.array([[1000000000005.0, 1000000000015.0, -1000000000005.0]])
    assert format_rows(table) == percent_text(table)
    assert format_rows(table) == "1.00000000000e+12\t1.00000000002e+12\t-1.00000000000e+12\n"


def test_powers_of_ten_encode_like_percent():
    # the encoder's whole range |e| < 280, where floor(log10|x|) is often one off
    powers = np.array([float(f"1e{k}") for k in range(-279, 280)])   # 1e22 is the last exact one
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    table = np.stack([values, -values], axis=1)
    assert format_rows(table) == percent_text(table)
    assert format_rows(np.array([[1e23]])) == "1.00000000000e+23\n"


def test_exponents_at_the_encoders_range_edges_encode_like_percent():
    # |e| < 280 is encoded, the rest goes through %; 10^(11 - e) overflows at e = -298
    mantissas = [1.0, 1.5, 4.99999999999951, 9.999999999999, 9.9999999999999995]
    values = [m * 10.0**k for k in (279, 280, 281) for m in mantissas]
    values += [float(f"{m!r}e{k}") for k in (-279, -280, -281, -298, -299) for m in mantissas]
    table = np.array(values).reshape(-1, 1) * np.array([1.0, -1.0])
    assert format_rows(table) == percent_text(table)
    assert "1.00000000000e-298" in format_rows(np.array([[1e-298]]))


def test_three_digit_exponents_encode_like_percent():
    table = np.array([[1.234e100, -5e-150, 1e-100, 9.999999999999e99, 9.99999999999951e99],
                      [1e100, -1e-101, 6.02e123, -1.1e-200, 2.5e250]])
    text = format_rows(table)
    assert text == percent_text(table)
    assert "1.00000000000e+100" in text and "-5.00000000000e-150" in text


def test_float_range_extremes_encode_like_percent():
    table = np.array([[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
                      [-5e-324, -2.2250738585072014e-308, -1.7976931348623157e308]])
    text = format_rows(table)
    assert text == percent_text(table)
    assert text.split("\n")[0] == "4.94065645841e-324\t2.22507385851e-308\t1.79769313486e+308"


def test_signed_zeros_and_the_rounding_family_encode_like_percent():
    table = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]])
    text = format_rows(table)
    assert text == percent_text(table)
    assert text.startswith("0.00000000000e+00\t-0.00000000000e+00\t")


def test_blank_cells_keep_only_their_separator():
    table = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    blank = np.array([[False, True, False], [False, False, True]])
    assert format_rows(table, blank) == (
        "1.00000000000e+00\t\t3.00000000000e+00\n4.00000000000e+00\t5.00000000000e+00\t\n"
    )


def test_write_text_writes_the_blocks_as_ascii_with_newline_line_ends(tmp_path):
    blocks = _table_text("a\tb", np.array([[1.5, -0.0], [np.inf, 1e-300]]))
    path = tmp_path / "table.tsv"
    write_text(path, blocks)
    assert path.read_bytes() == "".join(blocks).encode("ascii")
    assert b"\r" not in path.read_bytes()


def whole_map_pgm(pnt):
    """The raster scaled, rounded and clipped over every site, reached or not."""
    img = pnt.T
    scale = 255.0 / img.max() if img.max() > 0 else 0.0
    data = np.clip(np.rint(img * scale), 0, 255).astype(np.uint8)
    return f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii") + data.tobytes()


def test_pgm_of_the_reached_sites_is_the_whole_map_raster():
    rng = np.random.default_rng(7)
    for reach in (1, 5, 24):
        pnt = np.zeros((9, 24))
        pnt[:, :reach] = rng.uniform(0.0, 1.0, size=(9, reach)) ** 3
        pnt[2, reach - 1] = 0.0    # a zero inside the reach, and a peak at a random site
        traj = Trajectory(t_grid=np.arange(9.0), pnt=pnt, p_e=np.zeros(9), p_r=np.zeros(9),
                          mean_n=np.zeros(9), top_site_occupancy=0.0)
        assert intensity_map_pgm(traj) == whole_map_pgm(pnt)
    e0 = FullState.basis_state("e", 0, 48)
    traj = run_trajectory(RabiParams(omega0=0.1, omega=0.23, g=0.15, n_trunc=48), e0, 30.0, 0.5)
    assert intensity_map_pgm(traj) == whole_map_pgm(traj.pnt)
