"""Deterministic text and raster writers.

All numeric text uses fixed 12-significant-digit scientific notation so
golden-file comparisons are stable across platforms and runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dynamics import Trajectory

_BLOCK_VALUES = 1 << 16   # values formatted per % call in _table_text
_ZERO = "%.11e" % 0.0     # the text of +0.0, written literally for empty columns


def _table_text(header: str, *columns: np.ndarray) -> list[str]:
    """The header line, then one tab-separated line per row, as a list of text blocks.

    ``columns`` are 1-D or 2-D float arrays with one entry (or row) per
    table row; they are put side by side a block of rows at a time.  Every
    value is written as ``f"{x:.11e}"`` writes it: the ``%.11e`` row
    template is the same C conversion, applied to a block of rows at a time
    so that the Python floats passed to it stay bounded in number.  The
    trailing columns of a block that hold +0.0 (by bit pattern, so -0.0
    still goes through the conversion) in every row are literal text in
    that block's template.
    """
    rows = columns[0].shape[0]
    cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    block = max(1, _BLOCK_VALUES // cols)
    parts = [header + "\n"]
    for start in range(0, rows, block):
        chunk = np.column_stack([c[start:start + block] for c in columns])
        live = np.flatnonzero(chunk.view(np.uint64).any(axis=0))
        width = int(live[-1]) + 1 if live.size else 0
        row_template = "\t".join(["%.11e"] * width + [_ZERO] * (cols - width)) + "\n"
        values = tuple(chunk[:, :width].ravel().tolist())
        parts.append((row_template * chunk.shape[0]) % values)
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
    site 0 on the top row.
    """
    img = traj.pnt.T  # (sites, times)
    peak = img.max()
    scale = 255.0 / peak if peak > 0 else 0.0
    data = np.clip(np.rint(img * scale), 0, 255).astype(np.uint8)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    return header + data.tobytes()


def sweep_summary_text(rows: list[tuple[float, float, float, float]]) -> list[str]:
    table = np.array(rows, dtype=float).reshape(len(rows), 4)
    return _table_text("omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n", table)


def write_text(path: Path, text: str | list[str]) -> None:
    """Write a string, or a formatter's list of text blocks one after another."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.writelines([text] if isinstance(text, str) else text)


def write_bytes(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
