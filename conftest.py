"""Settings for the whole test session, loaded before any test module.

Tests run with one OpenBLAS thread unless the environment sets another
count: the sweeps' BLAS calls are small, and on more threads OpenBLAS
spreads them over every core for no gain in wall time (on a 2-vCPU
machine the suite used 8 min 45 s of CPU time with the default thread
count and 7 min 30 s with one).  This file sits at the repository root
because perfbench/test_perfbench.py imports numpy, which reads the
setting once, before tests/conftest.py loads.  The library itself sets
nothing.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
