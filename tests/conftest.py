"""Test-session set-up: one BLAS thread and one reference arithmetic, set before numpy loads.

A multi-threaded BLAS splits a large GEMM differently from the 256-row blocks
the code computes, so bit-for-bit tests of blocked passes would depend on the
machine's core count. The bit pins also depend on the kernels: numpy's
``exp``, ``log``, ``log1p`` and ``expm1`` change bits with its SIMD level, and
``matmul`` with the OpenBLAS kernel. So the tests run numpy without its
AVX-512 loops and OpenBLAS on its Haswell kernel, which every x86-64-v3 host
can run (README, "Determinism"). numpy and OpenBLAS read these variables once,
when numpy is first imported, which is why this module must run before that
import.
"""

import os
import platform
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin its arithmetic")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if platform.machine().lower() in ("x86_64", "amd64"):
    os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_SPR AVX512_ICL"
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"
