"""The thread counts of the OpenBLAS libraries this process has loaded.

numpy's is read through ``rabichain.blas``, which finds its OpenBLAS, and
scipy's through scipy's own extension module once ``scipy.linalg`` is loaded.
The fresh interpreters of ``test_cli`` import this module too, after what
they load first.
"""

import ctypes
import sys

from rabichain import blas

# found as this module loads, so a test that patches ``blas`` still reads numpy's count
NUMPY_GET, NUMPY_SET = (getattr(blas._openblas(), name) for name in blas._THREADS)


def scipy_openblas():
    """scipy's OpenBLAS, opened through ``scipy.linalg._fblas``; None before scipy.linalg is loaded."""
    linalg = sys.modules.get("scipy.linalg")
    return None if linalg is None else ctypes.CDLL(linalg._fblas.__file__)


def openblas_counts():
    """The thread count of numpy's OpenBLAS, and of scipy's once scipy.linalg is loaded."""
    scipy = scipy_openblas()
    return {"numpy": NUMPY_GET(), **({} if scipy is None else {"scipy": scipy.scipy_openblas_get_num_threads()})}
