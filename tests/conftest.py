"""Every OpenBLAS a test process has loaded, by build, and its thread count.

The package sets the count of numpy's OpenBLAS alone (``rabichain.blas``).
The tests read scipy's too, and cap it around their scipy references.  The
libraries are listed through /proc/self/maps, so on Linux only; elsewhere
none is listed.  Fresh interpreters import this module by name.
"""

import ctypes
from contextlib import contextmanager

OPENBLAS_THREADS = {   # (get, set) thread-count symbols of each OpenBLAS build
    "numpy": ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),   # ILP64
    "scipy": ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    "plain": ("openblas_get_num_threads", "openblas_set_num_threads"),
}


def openblas_libraries():
    """A ctypes handle on each OpenBLAS /proc/self/maps lists, by build."""
    try:
        with open("/proc/self/maps") as maps:   # the pathname, the sixth field, may hold spaces
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n")
                            for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    libraries = {}
    for path in paths:
        handle = ctypes.CDLL(path)
        build = next((build for build, symbols in OPENBLAS_THREADS.items()
                      if all(hasattr(handle, symbol) for symbol in symbols)), None)
        if build is not None:
            libraries[build] = handle
    return libraries


def blas_threads():
    """Thread count of every OpenBLAS this process has loaded, by build."""
    return {build: getattr(handle, OPENBLAS_THREADS[build][0])()
            for build, handle in openblas_libraries().items()}


def set_blas_threads(counts):
    """Set each OpenBLAS named in ``counts`` to its count; the counts they then read."""
    libraries = openblas_libraries()
    for build, n in counts.items():
        getattr(libraries[build], OPENBLAS_THREADS[build][1])(n)
    return blas_threads()


@contextmanager
def every_openblas_at_one_thread():
    """Run every OpenBLAS loaded, scipy's too, at one thread for the block; restore the counts after."""
    before = blas_threads()
    set_blas_threads(dict.fromkeys(before, 1))
    try:
        yield
    finally:
        set_blas_threads(before)
