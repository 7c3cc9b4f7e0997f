"""The OpenBLAS libraries loaded, as /proc/self/maps lists them, and scipy's LAPACK wrapper."""

import ctypes   # numpy has imported it already
from contextlib import contextmanager
from functools import cache

from numpy.linalg import LinAlgError

_MAPS = "/proc/self/maps"
_ROUTINES = ("dstevd", "dsyevr", "dsyevr_lwork")   # every routine the package calls

_OPENBLAS_THREADS = [   # (get, set) symbols: numpy's build, scipy's build, a plain build
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]


def openblas_libraries():
    """A ctypes handle on each OpenBLAS loaded (numpy and scipy each bundle one), if any."""
    try:
        with open(_MAPS) as maps:   # the pathname, the sixth field, may hold spaces
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n")
                            for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            yield ctypes.CDLL(path)
        except OSError:   # a mapping whose file is gone
            pass


@contextmanager
def one_thread():
    """Run every loaded OpenBLAS at one thread for the block, and restore the old counts after it.

    scipy's LAPACK wrapper is loaded first, so that its OpenBLAS is mapped
    and set too.  Nothing happens where :func:`openblas_libraries` finds no
    OpenBLAS.  Lowering the count stops no worker: the pool an OpenBLAS
    started when it loaded stays and spins.  So the CLI, when it is the
    program, loads both at one thread instead (``rabichain.cli``); this
    holds in-process callers that loaded numpy first to one thread.
    """
    lapack()
    restore = []
    for handle in openblas_libraries():
        for get, set_ in _OPENBLAS_THREADS:
            if hasattr(handle, get) and hasattr(handle, set_):
                setter = getattr(handle, set_)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                restore.append((setter, getattr(handle, get)()))
                setter(1)
                break
    try:
        yield
    finally:
        for setter, old in restore:
            setter(old)


@cache
def numpy_core() -> str | None:
    """The core numpy's OpenBLAS runs, such as ``SkylakeX``, read once; None if unreadable."""
    for handle in openblas_libraries():
        if hasattr(handle, "scipy_openblas_get_corename64_"):   # numpy's build alone has it
            get = handle.scipy_openblas_get_corename64_
            get.argtypes, get.restype = [], ctypes.c_char_p
            return (get() or b"").decode("ascii", "replace") or None


@cache
def lapack():
    """scipy's LAPACK wrapper, ``scipy.linalg._flapack``, loaded once and without ``scipy.linalg``.

    Every eigensolve calls it, through :func:`checked`; importing scipy.linalg
    would also import numpy's f2py, testing, ma and random (0.2 s).
    """
    import scipy   # 12 ms; on Windows its _distributor_init lets the bundled DLLs be found
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import module_from_spec

    where = scipy.__path__[0] + "/linalg"
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    if (spec := finder.find_spec("scipy.linalg._flapack")) is not None:
        spec.loader.exec_module(module := module_from_spec(spec))
        if all(hasattr(module, routine) for routine in _ROUTINES):
            return module
    raise ImportError(f"no LAPACK wrapper _flapack with {', '.join(_ROUTINES)} in {where} "
                      f"(scipy {scipy.__version__})")


def checked(routine: str, *args, **kwargs) -> list:
    """Call ``routine`` of :func:`lapack`; its outputs but LAPACK's info, which raises unless 0."""
    *outputs, info = getattr(lapack(), routine)(*args, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise LinAlgError(f"{routine} did not converge (LAPACK info={info})")
    return outputs
