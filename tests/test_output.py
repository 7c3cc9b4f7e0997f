"""TSV writers: the vectorised encoder writes what a per-value f-string or ``%`` writes."""

import fcntl
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rabichain import output
from rabichain.config import FORMAT_BLOCK_BYTES
from rabichain.dynamics import run_trajectory
from rabichain.model import FullState, RabiParams
from rabichain.output import (
    _BLOCK_VALUES,
    _rows_text,
    _table_text,
    format_rows,
    intensity_map_pgm,
    intensity_map_text,
    new_files,
    sweep_summary_text,
    timeseries_text,
    write_text,
)

# 9.999999999995e-05 lies just below its 12-digit half-way point and rounds
# down; 9.9999999999996e-05 rounds up to the next decade.
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 9.999999999995e-05, 9.9999999999996e-05, 1.0, -1.0]


def per_value_text(header, rows):
    """The writers' output format, one f-string per value, as ASCII."""
    lines = [header] + ["\t".join(f"{v:.11e}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_edge_values_format_like_the_f_string():
    table = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
    text = b"".join(_table_text("h", table))
    assert text == per_value_text("h", table.tolist())
    # the edge cases are what they claim to be
    assert b"1.00000000000e-300" in text
    assert b"9.99999999999e-05" in text
    assert b"1.00000000000e-04" in text
    assert b"-0.00000000000e+00" in text


def test_empty_table_is_the_header_line():
    assert list(_table_text("a\tb", np.empty((0, 2)))) == [b"a\tb\n"]


@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        min_size=1,
        max_size=40,
    )
)
def test_any_finite_floats_format_like_the_f_string(rows):
    assert b"".join(_table_text("x\ty\tz", np.array(rows))) == per_value_text("x\ty\tz", rows)


def table_matches_per_value_text(table):
    text = b"".join(_table_text("h", table))
    assert text == per_value_text("h", table.tolist())
    return text


def test_trailing_zero_columns_format_like_the_f_string():
    table = np.zeros((5, 6))
    table[:, :2] = [[0.25, 1e-300]] * 5
    text = table_matches_per_value_text(table)
    assert text.splitlines()[1].endswith(b"\t0.00000000000e+00" * 4)


def test_negative_zero_in_a_trailing_column_keeps_its_sign():
    table = np.zeros((4, 5))
    table[:, 0] = 1.5
    table[2, 4] = -0.0
    text = table_matches_per_value_text(table)
    assert text.splitlines()[3].endswith(b"\t-0.00000000000e+00")
    assert text.count(b"-0.00000000000e+00") == 1


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
    assert len(list(_table_text("h", table))) == 1 + 5                        # header + 5 blocks
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
    assert b"".join(timeseries_text(traj)) == per_value_text("t_mm\tP_e\tP_g\tP_r\tmean_n", ts_rows)

    map_rows = [(traj.t_grid[k], *traj.pnt[k]) for k in range(nt)]
    header = "t_mm\t" + "\t".join(f"P{j}" for j in range(n))
    assert b"".join(intensity_map_text(traj)) == per_value_text(header, map_rows)


def test_sweep_summary_matches_per_value_table():
    rows = [(-0.3, 0.25, 0.5, 3.75), (0.1234, 1e-300, 0.0, 12.0)]
    header = "omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n"
    assert b"".join(sweep_summary_text(rows)) == per_value_text(header, rows)


# ---------------------------------------------------------------------------
# exactness of the vectorised encoder against "%.11e" % x
# ---------------------------------------------------------------------------

def percent_text(table):
    """Rows of ``table`` as the ``%`` conversion writes them, one value at a time, as ASCII."""
    return "".join("\t".join("%.11e" % v for v in row) + "\n" for row in table.tolist()).encode("ascii")


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
    assert b"".join(_table_text("h", table)) == b"h\n" + percent_text(table)


def test_exact_ties_round_half_to_even():
    table = np.array([[1000000000005.0, 1000000000015.0, -1000000000005.0]])
    assert format_rows(table) == percent_text(table)
    assert format_rows(table) == b"1.00000000000e+12\t1.00000000002e+12\t-1.00000000000e+12\n"


def test_powers_of_ten_encode_like_percent():
    # the encoder's whole range |e| < 280, where floor(log10|x|) is often one off
    powers = np.array([float(f"1e{k}") for k in range(-279, 280)])   # 1e22 is the last exact one
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    table = np.stack([values, -values], axis=1)
    assert format_rows(table) == percent_text(table)
    assert format_rows(np.array([[1e23]])) == b"1.00000000000e+23\n"


def test_exponents_at_the_encoders_range_edges_encode_like_percent():
    # |e| < 280 is encoded, the rest goes through %; 10^(11 - e) overflows at e = -298
    mantissas = [1.0, 1.5, 4.99999999999951, 9.999999999999, 9.9999999999999995]
    values = [m * 10.0**k for k in (279, 280, 281) for m in mantissas]
    values += [float(f"{m!r}e{k}") for k in (-279, -280, -281, -298, -299) for m in mantissas]
    table = np.array(values).reshape(-1, 1) * np.array([1.0, -1.0])
    assert format_rows(table) == percent_text(table)
    assert b"1.00000000000e-298" in format_rows(np.array([[1e-298]]))


def test_three_digit_exponents_encode_like_percent():
    table = np.array([[1.234e100, -5e-150, 1e-100, 9.999999999999e99, 9.99999999999951e99],
                      [1e100, -1e-101, 6.02e123, -1.1e-200, 2.5e250]])
    text = format_rows(table)
    assert text == percent_text(table)
    assert b"1.00000000000e+100" in text and b"-5.00000000000e-150" in text


def test_float_range_extremes_encode_like_percent():
    table = np.array([[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
                      [-5e-324, -2.2250738585072014e-308, -1.7976931348623157e308]])
    text = format_rows(table)
    assert text == percent_text(table)
    assert text.split(b"\n")[0] == b"4.94065645841e-324\t2.22507385851e-308\t1.79769313486e+308"


def test_signed_zeros_and_the_rounding_family_encode_like_percent():
    table = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]])
    text = format_rows(table)
    assert text == percent_text(table)
    assert text.startswith(b"0.00000000000e+00\t-0.00000000000e+00\t")


def test_blank_cells_keep_only_their_separator():
    table = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    blank = np.array([[False, True, False], [False, False, True]])
    assert format_rows(table, blank) == (
        b"1.00000000000e+00\t\t3.00000000000e+00\n4.00000000000e+00\t5.00000000000e+00\t\n"
    )


def test_encoding_a_text_block_peaks_below_the_memory_estimate():
    # one block of 2^16 values, 256 rows of 256 columns over 300 decades: config.check_memory
    # charges FORMAT_BLOCK_BYTES for it, so the estimate stays an upper bound
    rng = np.random.default_rng(3)
    t = np.arange(256) * 0.01
    pop = rng.normal(size=(256, 255)) * 10.0 ** rng.integers(-150, 150, size=(256, 255))
    tracemalloc.start()
    try:
        block = next(_rows_text(256, t, pop))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block == percent_text(np.column_stack([t, pop]))
    assert peak < FORMAT_BLOCK_BYTES, (peak, FORMAT_BLOCK_BYTES)


def test_write_text_writes_the_blocks_as_ascii_with_newline_line_ends(tmp_path):
    blocks = list(_table_text("a\tb", np.array([[1.5, -0.0], [np.inf, 1e-300]])))
    path = tmp_path / "table.tsv"
    write_text(path, blocks)
    assert path.read_bytes() == b"".join(blocks)
    assert b"\r" not in path.read_bytes()


def held_elsewhere(path):
    """Whether a new open of ``path`` finds its ``flock`` taken."""
    with path.open("rb") as f:
        try:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
        return False


def test_a_temporary_is_locked_from_its_creation_to_its_rename(tmp_path, monkeypatch):
    path, tmp = tmp_path / "a.tsv", tmp_path / f".a.tsv.{os.getpid()}.tmp"
    tmp.write_bytes(b"left by an earlier run of this pid\n")
    at_rename = []
    replace = os.replace

    def checked_replace(src, dst):
        at_rename.append(held_elsewhere(Path(src)))
        replace(src, dst)

    monkeypatch.setattr(output.os, "replace", checked_replace)
    with new_files() as create:
        create(path).write(b"x\n")
        assert held_elsewhere(tmp)
    assert at_rename == [True]   # closed, and still locked
    assert path.read_bytes() == b"x\n"
    assert not tmp.exists()


def test_the_sweep_removes_only_temporaries_named_with_a_decimal_pid(tmp_path):
    # files of the user's with a temporary's prefix and suffix stay; an unlocked
    # .<name>.<digits>.tmp is a killed writer's, and goes
    kept = [tmp_path / f".timeseries.tsv.{middle}.tmp" for middle in ("backup", "my notes", "2024-01")]
    for path in kept:
        path.write_bytes(b"the user's\n")
    (tmp_path / ".timeseries.tsv.4194305.tmp").write_bytes(b"a killed run's\n")
    write_text(tmp_path / "timeseries.tsv", b"x\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([p.name for p in kept] + ["timeseries.tsv"])
    assert [p.read_bytes() for p in kept] == [b"the user's\n"] * 3


def test_a_writer_whose_temporary_a_sweep_removed_creates_it_again(tmp_path, monkeypatch):
    tmp = tmp_path / ".a.tsv.1.tmp"
    sweep = tmp.open("ab")
    fcntl.flock(sweep.fileno(), fcntl.LOCK_EX)
    calls = []
    opened = threading.Event()

    def flock(fd, operation):   # called after the writer's open
        calls.append(fd)
        opened.set()
        fcntl.flock(fd, operation)

    monkeypatch.setattr(output, "flock", flock)
    with ThreadPoolExecutor(max_workers=1) as pool:
        writer = pool.submit(output._locked, tmp)
        assert opened.wait(10)
        time.sleep(0.05)   # the writer waits in flock
        tmp.unlink()       # the sweep removes the file, then lets go of its lock
        sweep.close()
        f = writer.result(timeout=10)
    with f:
        assert len(calls) == 2
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(tmp))
        assert held_elsewhere(tmp)


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
        assert intensity_map_pgm(pnt.T, 24) == whole_map_pgm(pnt)
        assert intensity_map_pgm(pnt.T[:reach], 24) == whole_map_pgm(pnt)   # the first sites only
    e0 = FullState.basis_state("e", 0, 48)
    traj = run_trajectory(RabiParams(omega0=0.1, omega=0.23, g=0.15, n_trunc=48), e0, 30.0, 0.5)
    assert intensity_map_pgm(traj.pnt.T, 48) == whole_map_pgm(traj.pnt)


def test_pgm_of_a_map_with_no_positive_peak_is_all_zero():
    for pop in (np.zeros((3, 5)), np.zeros((0, 5))):   # all-zero, and no site given
        assert intensity_map_pgm(pop, 4) == b"P5\n5 4\n255\n" + bytes(20)


def test_pgm_holds_the_raster_and_one_scaled_row_chunk():
    # 256 sites over 6,001 points, the sites map_export reaches: 10 rows of floats at a time
    pop = np.random.default_rng(5).uniform(size=(256, 6001)) ** 3
    chunk = 8 * 6001 * (_BLOCK_VALUES // 6001)
    tracemalloc.start()
    try:
        pgm = intensity_map_pgm(pop, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pgm) == len(b"P5\n6001 256\n255\n") + 256 * 6001
    # 16 KiB for array and object headers; a float copy of the map alone is 12.3 MB
    assert peak < len(pgm) + chunk + 2**14, (peak, len(pgm), chunk)
    assert pgm == whole_map_pgm(pop.T)
