"""Test-session set-up: one BLAS thread, as ``perfbench/run.py`` pins it.

A multi-threaded BLAS splits a large GEMM differently from the 256-row blocks
the code computes, so bit-for-bit tests of blocked passes would depend on the
machine's core count. OpenBLAS reads these variables once, when numpy is
first imported, which is why this module must run before that import.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
