"""One BLAS thread in every process the program starts, unless set.

``Engine.run_batch`` already runs a batch's members on one thread per
CPU, and each pool replica is a process of its own, so BLAS threads
stacked on top oversubscribe the CPUs (DESIGN §10). OpenBLAS, MKL and
OpenMP read these variables once, when NumPy loads: set them first.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> list[str]:
    """Set every unset BLAS thread variable to 1; returns those it set.

    A value the user chose stays as it is.
    """
    unset = [var for var in BLAS_THREAD_VARS if var not in os.environ]
    for var in unset:
        os.environ[var] = "1"
    return unset
