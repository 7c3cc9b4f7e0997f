"""Every OpenBLAS the tests load runs at one thread, whatever the shell sets.

pytest imports this module before any test module loads numpy or scipy, so
both OpenBLAS read the variable when they load: the scipy references compute
at one thread, as the commands do.  A test that needs numpy's count above 1
sets it through ``rabichain.blas``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
