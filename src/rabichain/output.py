"""Deterministic text and raster writers.

All numeric text is fixed 12-significant-digit scientific notation, the
bytes ``"%.11e" % x`` gives for every float64, written as ASCII with
``\\n`` line ends, so golden-file comparisons are stable across platforms
and runs.  Every table here is ``bytes``, from the formatter to the file:
no ``str`` is built for it, and every file is written in binary mode.

The tables are written a row block at a time: ``_rows_text`` lays out
the rows of one block, and the header and the row blocks of a table
(``timeseries_rows``, ``intensity_map_rows``) can be written as they
come, as ``simulate`` does from its writer thread, or all at once, as
``timeseries_text`` and ``intensity_map_text`` do for a whole
:class:`~rabichain.dynamics.Trajectory`.  Either way the bytes are the
same.

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
Each value gets a fixed 20-byte cell, and a byte that not every value has
is a NUL byte in the tables: the sign of a value without its sign bit,
the hundreds digit of an exponent below 100 and the padding of a ``%``
fallback.  One ``bytes.translate`` pass over the cells removes every NUL,
which leaves each field at its own length.
"""

from __future__ import annotations

import glob
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from fcntl import LOCK_EX, LOCK_NB, flock
from pathlib import Path
from typing import IO, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dynamics import Trajectory

_BLOCK_VALUES = 1 << 16   # values encoded at a time in _rows_text
_ZERO = b"0.00000000000e+00"   # the text of +0.0, written literally past the given columns

# A value's cell is 20 bytes, five native-order uint32 words:
#   "-" d0 "." d1 | d2..d5 | d6..d9 | d10 d11 "e" sign | E2 E1 E0 separator
# The "-" byte is NUL for a value without its sign bit, E2 for |e| < 100.
_CELL = 20
_E_MAX = 280              # |e| below this is encoded; _POW10[_E_MAX - e] = 10^(11 - e)
_POW10 = np.array([float(f"1e{k}") for k in range(11 - _E_MAX, 12 + _E_MAX)])


def _words(*byte_columns) -> np.ndarray:
    """One uint32 word per row of four ASCII byte columns, in memory order."""
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint8) for c in byte_columns))
    return np.stack(columns, axis=1).view(np.uint32).ravel()


_I = np.arange(10**4, dtype=np.uint16)
_D = ord("0")
_LEAD = _words(np.where(_I[:200] < 100, 0, ord("-")), _D + _I[:200] % 100 // 10,  # by d0 d1,
               ord("."), _D + _I[:200] % 10)                                    # + 100 (sign bit)
_QUAD = _words(*(_D + _I // 10**k % 10 for k in (3, 2, 1, 0)))                 # by 4 digits
_TAIL = _words(_D + _I[:200] // 20, _D + _I[:200] // 2 % 10, ord("e"),         # by 2*(d10 d11)
               np.where(_I[:200] % 2, ord("-"), ord("+")))                      # + (e < 0)
_EXP = _words(np.where(_I[:2000] % 1000 < 100, 0, _D + _I[:2000] % 1000 // 100),  # by |e|,
              _D + _I[:2000] // 10 % 10, _D + _I[:2000] % 10,                      # + 1000
              np.where(_I[:2000] < 1000, ord("\t"), ord("\n")))                   # at row end


def format_rows(table: np.ndarray) -> bytes:
    """Each row of a 2-D float array as ``%.11e`` fields joined by tabs, ending in ``\\n``, as ASCII."""
    width = table.shape[1]
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
    cells[:, 0] = _LEAD[n // 10**10 + 100 * np.signbit(x)]
    cells[:, 1] = _QUAD[n // 10**6 % 10**4]
    cells[:, 2] = _QUAD[n // 100 % 10**4]
    cells[:, 3] = _TAIL[n % 100 * 2 + (e < 0)]
    e = np.abs(e)
    e[width - 1::width] += 1000                  # the row's last field ends the line
    cells[:, 4] = _EXP[e]

    text = cells.view(np.uint8)
    slow = np.flatnonzero(~vector)
    if slow.size:                                # at most 19 characters each, NUL-padded
        fallback = "".join([("%.11e" % v).ljust(_CELL - 1, "\0") for v in x[slow].tolist()])
        text[slow, :-1] = np.frombuffer(fallback.encode("ascii"), dtype=np.uint8).reshape(-1, _CELL - 1)
    return cells.tobytes().translate(None, b"\0")


def _rows_text(width: int, *columns: np.ndarray) -> Iterator[bytes]:
    """One tab-separated line per row of a row block, yielded as ASCII text blocks.

    ``columns`` are 1-D or 2-D float arrays with one entry (or row) per
    table row, put side by side to give the first columns of a ``width``
    column table; the columns past them hold +0.0 (for the map, the sites
    past the reach, which ``dynamics`` never computes).  A text block holds
    _BLOCK_VALUES // width rows; every given value is written by
    ``format_rows``, and each column past them is appended to each line as
    the literal ``_ZERO``, the text ``format_rows`` gives +0.0.  A text
    block is formatted only when the one before it has been consumed, so a
    writer never holds more than one block's text.
    """
    rows = columns[0].shape[0]
    step = max(1, _BLOCK_VALUES // width)
    for start in range(0, rows, step):
        chunk = np.column_stack([c[start:start + step] for c in columns])
        text = format_rows(chunk)
        if chunk.shape[1] < width:
            text = text.replace(b"\n", (b"\t" + _ZERO) * (width - chunk.shape[1]) + b"\n")
        yield text
        del text   # on resuming, before the next block is encoded


TIMESERIES_HEADER = b"t_mm\tP_e\tP_g\tP_r\tmean_n\n"


def intensity_map_header(n_trunc: int) -> bytes:
    return b"t_mm\t" + b"\t".join(b"P%d" % j for j in range(n_trunc)) + b"\n"


def timeseries_rows(t: np.ndarray, p_e: np.ndarray, p_r: np.ndarray,
                    mean_n: np.ndarray) -> Iterator[bytes]:
    """The timeseries lines of a row block of grid times ``t``, as text blocks."""
    return _rows_text(5, t, p_e, 1.0 - p_e, p_r, mean_n)


def intensity_map_rows(n_trunc: int, t: np.ndarray, pop: np.ndarray) -> Iterator[bytes]:
    """The map lines of a row block of grid times ``t``, as text blocks.

    ``pop`` is P(n, t) site-major, shape (sites, len(t)), for the first
    sites of the ``n_trunc``; the sites past it are empty.  Text blocks are
    sized by the full row of n_trunc + 1 columns.
    """
    return _rows_text(n_trunc + 1, t, pop.T)


def timeseries_text(traj: Trajectory) -> Iterator[bytes]:
    yield TIMESERIES_HEADER
    yield from timeseries_rows(traj.t_grid, traj.p_e, traj.p_r, traj.mean_n)


def intensity_map_text(traj: Trajectory) -> Iterator[bytes]:
    """Rows are grid times (top to bottom), columns are sites (left to right)."""
    n = traj.pnt.shape[1]
    yield intensity_map_header(n)
    yield from intensity_map_rows(n, traj.t_grid, traj.pnt.T)


def intensity_map_pgm(pop: np.ndarray, n_trunc: int) -> bytearray:
    """8-bit grayscale raster of P(n, t), max-normalized, binary PGM (P5).

    ``pop`` is the map site-major, shape (sites, grid points), for the
    first sites of the ``n_trunc``; the sites past it are empty.  Rotated a
    quarter turn relative to the text table so that propagation distance
    runs horizontally: width = grid points, height = n_trunc sites, site 0
    on the top row.  Only the given sites are scaled: every site past them
    is byte 0, as is the whole raster of an all-zero or empty map.  The
    file is one buffer, the header and then the raster, and the given
    sites are scaled into it a chunk of rows at a time, _BLOCK_VALUES
    values or one row: no copy of the whole map is made.
    """
    sites, points = pop.shape
    header = f"P5\n{points} {n_trunc}\n255\n".encode("ascii")
    blob = bytearray(len(header) + n_trunc * points)
    blob[:len(header)] = header
    data = np.frombuffer(blob, dtype=np.uint8, offset=len(header)).reshape(n_trunc, points)
    peak = pop.max(initial=0.0)
    scale = 255.0 / peak if peak else 0.0
    step = max(1, _BLOCK_VALUES // max(points, 1))
    chunk = np.empty((min(step, sites), points))
    for start in range(0, sites, step):
        rows = chunk[:min(step, sites - start)]
        np.multiply(pop[start:start + step], scale, out=rows)
        np.rint(rows, out=rows)
        np.clip(rows, 0, 255, out=rows)
        data[start:start + len(rows)] = rows
    return blob


def sweep_summary_text(rows: list[tuple[float, float, float, float]]) -> Iterator[bytes]:
    yield b"omega0_mm1\tmin_P_r\tmin_population\tmax_mean_n\n"
    yield from _rows_text(4, np.array(rows, dtype=float).reshape(len(rows), 4))


def _locked(tmp: Path) -> IO[bytes]:
    """``tmp`` open for binary writing, created if absent, emptied, and under its own exclusive ``flock``."""
    while True:   # opened to append, so nothing is cut before the lock is held
        f = tmp.open("ab")
        with suppress(OSError):   # a file system without flock: unlocked, and so never swept
            flock(f.fileno(), LOCK_EX)   # waits out a sweep, or a writer of this name elsewhere
        with suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(f.fileno()), os.stat(tmp)):
                f.truncate(0)
                return f
        f.close()   # a sweep removed the file before the lock was taken: create it again


@contextmanager
def new_files() -> Iterator[Callable[[Path], IO[bytes]]]:
    """``create(path)``: a temporary next to ``path``, open for binary writing.

    When the block ends, every temporary is closed, and only then is each
    renamed onto its path, the last created first.  On any exception before
    the renames, a failed write or close among them, every temporary is
    removed and no file path changes: no file is ever cut off, and the files
    of a block appear together or not at all.  A directory that ``create``
    made for a path stays, empty.  A failed rename can still leave the files
    renamed before it.  A file holds the bytes written to it, so
    the tables' ``\\n`` line ends on every platform.  A temporary is
    ``.{name}.<pid>.tmp``, the pid in decimal, created by a plain ``open``,
    so it gets the mode that gives, and its writer holds an exclusive
    ``flock`` on it from creation to rename, through a duplicate descriptor
    that outlives the close.  After the renames, each sibling named so, with
    any decimal pid, whose lock can be taken at once is removed: no process
    holds it, and the kernel drops the locks of a killed writer.  Any other
    ``.{name}.*.tmp`` file is not one of these temporaries, and stays.
    """
    opened: list[tuple[Path, Path, IO[bytes], int]] = []

    def create(path: Path) -> IO[bytes]:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        f = _locked(tmp)
        opened.append((tmp, path, f, os.dup(f.fileno())))
        return f

    try:
        yield create
        for _, _, f, _ in opened:
            f.close()   # flushed: every byte is written before any file is renamed
        for tmp, path, _, _ in reversed(opened):
            os.replace(tmp, path)
    except BaseException:
        for tmp, _, f, _ in opened:
            with suppress(OSError):
                f.close()
            tmp.unlink(missing_ok=True)
        raise
    finally:
        for *_, lock in opened:
            os.close(lock)
    for _, path, _, _ in opened:   # a killed run's temporaries: nothing holds their lock
        prefix = f".{path.name}."
        for stale in path.parent.glob(f"{glob.escape(prefix)}*.tmp"):
            pid = stale.name[len(prefix):-len(".tmp")]
            if not (pid.isascii() and pid.isdigit()):   # not a temporary of new_files: the user's
                continue
            with suppress(OSError), stale.open("rb") as f:   # BlockingIOError: its writer holds it
                flock(f.fileno(), LOCK_EX | LOCK_NB)
                if os.path.samestat(os.fstat(f.fileno()), os.stat(stale)):   # still the file locked
                    stale.unlink()


def write_text(path: Path, blocks: Iterable[bytes]) -> None:
    """Write the blocks of ASCII text one after another, through ``new_files``.

    A formatter's iterator is consumed as the file is written, one block at a time.
    """
    with new_files() as create:
        create(path).writelines(blocks)


def write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob``; the file appears at ``path`` whole, or not at all (``new_files``)."""
    with new_files() as create:
        create(path).write(blob)
