"""numpy's OpenBLAS, found through numpy itself: its thread count, its core and its LAPACK, without the GIL."""

import ctypes   # numpy has imported it already
from contextlib import contextmanager
from functools import cache

import numpy as np
from numpy.linalg import LinAlgError

_ROUTINES = {"dstevd": (11, 1), "dsyevr": (21, 3)}   # arguments with INFO; CHARACTER*1 of them
_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@cache
def _openblas() -> ctypes.CDLL:
    """numpy's extension module, opened once: dlsym on it searches the OpenBLAS it links.

    PyPI's numpy >= 2 bundles scipy-openblas64 (ILP64), whose symbols end in ``64_``.
    """
    return ctypes.CDLL(np._core._multiarray_umath.__file__)


@contextmanager
def one_thread():
    """Run numpy's OpenBLAS at one thread for the block, where it exports its count, and restore it after.

    Lowering the count stops no worker: the pool OpenBLAS started when it
    loaded stays and spins, so the CLI, as the program, loads it at one
    thread instead (``rabichain.cli``); this holds callers that loaded numpy
    first.  Another OpenBLAS, such as scipy's, keeps its count: nothing here calls it.
    """
    get, set_ = (getattr(_openblas(), name, None) for name in _THREADS)
    old = get() if get is not None and set_ is not None else None
    if old is not None:
        set_(1)   # a Python int passes as the C int it takes
    try:
        yield
    finally:
        if old is not None:
            set_(old)


@cache
def numpy_core() -> str | None:
    """The core numpy's OpenBLAS runs, such as ``SkylakeX``, read once; None if unreadable."""
    get = getattr(_openblas(), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        return (get() or b"").decode("ascii", "replace") or None


@cache
def _lapack() -> ctypes.CDLL:
    """numpy's OpenBLAS, with ``_ROUTINES`` declared."""
    handle, symbols = _openblas(), {f"scipy_{routine}_64_": counts for routine, counts in _ROUTINES.items()}
    if not all(hasattr(handle, symbol) for symbol in symbols):
        raise ImportError(f"numpy's OpenBLAS exports no {' and no '.join(symbols)} (numpy {np.__version__})")
    for symbol, (args, chars) in symbols.items():   # pointers, then gfortran's hidden lengths
        getattr(handle, symbol).argtypes = [ctypes.c_void_p] * args + [ctypes.c_size_t] * chars
        getattr(handle, symbol).restype = None
    return handle


def _call(routine: str, *args) -> None:
    """Call LAPACK's ``routine`` (bytes as CHARACTER*1, arrays by pointer); its info raises unless 0."""
    info = ctypes.c_int64()
    refs = [a if isinstance(a, bytes) else a.ctypes.data if isinstance(a, np.ndarray)
            else ctypes.byref((ctypes.c_double if isinstance(a, float) else ctypes.c_int64)(a)) for a in args]
    getattr(_lapack(), f"scipy_{routine}_64_")(*refs, ctypes.byref(info), *[1] * _ROUTINES[routine][1])
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of internal {routine}")
    if info.value > 0:
        raise LinAlgError(f"{routine} did not converge (LAPACK info={info.value})")


def dstevd(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of a symmetric tridiagonal matrix, ascending; the eigenvectors in Fortran order."""
    d, e = np.array(diag, dtype=float), np.array(offdiag, dtype=float)   # both are overwritten
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError(f"dstevd needs n diagonal and n - 1 off-diagonal entries, got {d.shape}, {e.shape}")
    n, z = d.size, np.empty((d.size, d.size), order="F")
    work, iwork = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, dtype=np.int64)   # scipy's sizes
    _call("dstevd", b"V", n, d, e, z, n, work, work.size, iwork, iwork.size)
    return d, z


def dsyevr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of the symmetric ``a`` as ``scipy.linalg.eigh`` finds them, from its lower triangle."""
    n, a = a.shape[0], np.array(a, dtype=float, order="F")   # dsyevr overwrites a
    if a.shape != (n, n):
        raise ValueError(f"dsyevr needs a square matrix, got shape {a.shape}")
    w, z, isuppz = np.empty(n), np.empty((n, n), order="F"), np.empty(2 * n, dtype=np.int64)
    head = (b"V", b"A", b"L", n, a, n, 0.0, 1.0, 1, n, 0.0, n, w, z, n, isuppz)
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    _call("dsyevr", *head, work, -1, iwork, -1)   # eigh's workspace query: it sets dsytrd's blocking
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    _call("dsyevr", *head, work, work.size, iwork, iwork.size)
    return w, z
