"""Pytest root configuration.

OpenBLAS starts a thread pool for every small matrix call when left to its
default threading; the decoders make thousands of such calls, and the suite
ran about 14x slower for it on a 2-core host. One BLAS thread is therefore
the default for the suite. pytest loads this file before any test module
imports numpy, so the setting takes effect; an explicit
OPENBLAS_NUM_THREADS in the environment still wins.
tests/test_blas_threads.py checks that the decoders give the same results
with more than one thread.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
