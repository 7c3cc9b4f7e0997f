"""The OpenBLAS libraries this process has loaded, as /proc/self/maps lists them."""

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
