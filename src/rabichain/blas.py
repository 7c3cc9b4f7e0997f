"""The OpenBLAS libraries loaded, as /proc/self/maps lists them, and scipy's LAPACK wrapper."""

import ctypes   # numpy has imported it already
from functools import cache

_MAPS = "/proc/self/maps"


def openblas_libraries():
    """A ctypes handle on each OpenBLAS loaded (numpy and scipy each bundle one), if any."""
    try:
        with open(_MAPS) as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            yield ctypes.CDLL(path)
        except OSError:   # a mapping whose file is gone
            pass


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

    Importing scipy.linalg would also import numpy's f2py, testing, ma and random (0.2 s).
    """
    import scipy   # 12 ms; on Windows its _distributor_init lets the bundled DLLs be found
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import module_from_spec

    where = scipy.__path__[0] + "/linalg"
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    if (spec := finder.find_spec("scipy.linalg._flapack")) is not None:
        spec.loader.exec_module(module := module_from_spec(spec))
        if hasattr(module, "dstevd"):
            return module
    raise ImportError(f"no LAPACK wrapper _flapack with dstevd in {where} (scipy {scipy.__version__})")
