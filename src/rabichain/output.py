"""Deterministic text and raster writers.

All numeric text is fixed 12-significant-digit scientific notation, the
bytes ``"%.11e" % x`` gives for every float64, written as ASCII with
``\\n`` line ends, so golden-file comparisons are stable across platforms
and runs.

``format_rows`` is the one float-to-text conversion.  It encodes a whole
array at once: the decimal exponent e from ``floor(log10|x|)``, one
multiply by a correctly rounded 10^(11-e) to a mantissa m, ``rint`` to the
12 digits (10^12 carries into e), and table lookups for their text.  The
two roundings of the multiply put m within 2.3e-4 of |x| * 10^(11-e), so
``rint`` gives the correctly rounded digits whenever m lies more than 1e-3
from a rounding tie.  A value within 1e-3 of a tie, with digits outside
[1e11, 1e12] (a misestimated e), with |e| >= 280 (10^(11-e) would leave
the table's range, and overflows at e = -298), or not finite goes through
``%`` instead, which rounds exact ties half to even.  Both zeros are encoded.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dynamics import Trajectory

_BLOCK_VALUES = 1 << 16   # values encoded at a time in _table_text
_ZERO = "0.00000000000e+00"   # the text of +0.0, written literally for dead columns

# A value's cell is 20 bytes, five native-order uint32 words:
#   "-" d0 "." d1 | d2..d5 | d6..d9 | d10 d11 "e" sign | E2 E1 E0 separator
# The "-" byte is dropped for a value without its sign bit, E2 for |e| < 100.
_CELL = 20
_E_MAX = 280              # |e| below this is encoded; _POW10[_E_MAX - e] = 10^(11 - e)
_POW10 = np.array([float(f"1e{k}") for k in range(11 - _E_MAX, 12 + _E_MAX)])


def _words(*byte_columns) -> np.ndarray:
    """One uint32 word per row of four ASCII byte columns, in memory order."""
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint8) for c in byte_columns))
    return np.stack(columns, axis=1).view(np.uint32).ravel()


_I = np.arange(10**4, dtype=np.uint16)
_D = ord("0")
_LEAD = _words(ord("-"), _D + _I[:100] // 10, ord("."), _D + _I[:100] % 10)      # by d0 d1
_QUAD = _words(*(_D + _I // 10**k % 10 for k in (3, 2, 1, 0)))                 # by 4 digits
_TAIL = _words(_D + _I[:200] // 20, _D + _I[:200] // 2 % 10, ord("e"),         # by 2*(d10 d11)
               np.where(_I[:200] % 2, ord("-"), ord("+")))                      # + (e < 0)
_EXP = _words(_D + _I[:2000] % 1000 // 100, _D + _I[:2000] // 10 % 10,         # by |e|, + 1000
              _D + _I[:2000] % 10, np.where(_I[:2000] < 1000, ord("\t"), ord("\n")))  # at row end


def format_rows(table: np.ndarray, blank: np.ndarray | None = None) -> str:
    """Each row of a 2-D float array as ``%.11e`` fields joined by tabs, ending in ``\\n``.

    Cells where ``blank`` (a bool array of the table's shape) is True are
    written as empty fields.
    """
    rows, width = table.shape
    if width == 0:
        return "\n" * rows
    x = table.ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))                # -inf for 0; inf or nan when not finite
    vector = (np.abs(e) < _E_MAX) | (a == 0)
    a[~vector] = 0.0                             # encoded as zero, overwritten below
    e = np.where(a > 0, e, 0).astype(np.int64)
    m = a * _POW10[_E_MAX - e]
    n = np.rint(m)
    vector &= (np.abs(m - n) < 0.5 - 1e-3) & (((n >= 1e11) & (n <= 1e12)) | (a == 0))
    carry = n == 1e12
    n[carry] = 1e11
    e += carry
    n = n.astype(np.int64)

    cells = np.empty((x.size, _CELL // 4), dtype=np.uint32)
    cells[:, 0] = _LEAD[n // 10**10]
    cells[:, 1] = _QUAD[n // 10**6 % 10**4]
    cells[:, 2] = _QUAD[n // 100 % 10**4]
    cells[:, 3] = _TAIL[n % 100 * 2 + (e < 0)]
    e = np.abs(e)
    keep = np.ones((x.size, _CELL), dtype=bool)
    keep[:, 16] = e >= 100
    e[width - 1::width] += 1000                  # the row's last field ends the line
    cells[:, 4] = _EXP[e]
    keep[:, 0] = np.signbit(x)

    text = cells.view(np.uint8)
    slow = np.flatnonzero(~vector)
    if slow.size:                                # at most 19 characters each, padded
        fallback = "".join([("%.11e" % v).ljust(_CELL - 1) for v in x[slow].tolist()])
        fallback = np.frombuffer(fallback.encode("ascii"), dtype=np.uint8).reshape(-1, _CELL - 1)
        text[slow, :-1] = fallback
        keep[slow, :-1] = fallback != ord(" ")
    if blank is not None:
        keep[blank.ravel(), :-1] = False
    return str(text[keep].data, "ascii")


def _table_text(header: str, *columns: np.ndarray) -> list[str]:
    """The header line, then one tab-separated line per row, as a list of text blocks.

    ``columns`` are 1-D or 2-D float arrays with one entry (or row) per
    table row; they are put side by side a block of rows at a time, and
    every value is written by ``format_rows``.  The trailing columns of a
    block that hold +0.0 (by bit pattern, so -0.0 is still encoded) in
    every row are appended to each line as literal text.
    """
    rows = columns[0].shape[0]
    cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    block = max(1, _BLOCK_VALUES // cols)
    parts = [header + "\n"]
    for start in range(0, rows, block):
        chunk = np.column_stack([c[start:start + block] for c in columns])
        live = np.flatnonzero(chunk.view(np.uint64).any(axis=0))
        width = int(live[-1]) + 1 if live.size else 0
        text = format_rows(chunk[:, :width])
        if width < cols:
            text = text.replace("\n", "\t" * (width > 0) + "\t".join([_ZERO] * (cols - width)) + "\n")
        parts.append(text)
    return parts


def timeseries_text(traj: Trajectory) -> list[str]:
    return _table_text(
        "t_mm\tP_e\tP_g\tP_r\tmean_n",
        traj.t_grid, traj.p_e, traj.p_g, traj.p_r, traj.mean_n,
    )


def intensity_map_text(traj: Trajectory) -> list[str]:
    """Rows are grid times (top to bottom), columns are sites (left to right)."""
    n = traj.pnt.shape[1]
    header = "t_mm\t" + "\t".join(f"P{j}" for j in range(n))
    return _table_text(header, traj.t_grid, traj.pnt)


def intensity_map_pgm(traj: Trajectory) -> bytes:
    """8-bit grayscale raster, max-normalized, binary PGM (P5).

    Rotated a quarter turn relative to the text table so that propagation
    distance runs horizontally: width = grid points, height = sites,
    site 0 on the top row.  Only the sites the state reaches are scaled:
    every site past them is exactly 0.0 and so byte 0.
    """
    img = traj.pnt.T  # (sites, times)
    touched = np.flatnonzero(img.any(axis=1))
    reach = int(touched[-1]) + 1 if touched.size else 0
    live = img[:reach] * (255.0 / img[:reach].max() if reach else 0.0)   # peak > 0 when reach > 0
    np.rint(live, out=live)
    np.clip(live, 0, 255, out=live)
    data = np.zeros(img.shape, dtype=np.uint8)
    data[:reach] = live
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    return header + data.tobytes()


def sweep_summary_text(rows: list[tuple[float, float, float, float]]) -> list[str]:
    table = np.array(rows, dtype=float).reshape(len(rows), 4)
    return _table_text("omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n", table)


def write_text(path: Path, text: str | list[str]) -> None:
    """Write a string, or a formatter's list of text blocks one after another, as ASCII.

    No newline translation: the file holds ``\\n`` line ends on every platform.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="ascii", newline="") as f:
        f.writelines([text] if isinstance(text, str) else text)


def write_bytes(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
