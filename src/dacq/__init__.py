"""Learned dynamic configuration of evolutionary algorithms.

A meta-level Q-learning agent, built on a selective state-space sequence
model, picks per-generation hyper-parameters for modular evolutionary
algorithms (3-, 10- and 16-dimensional configuration spaces) on a
BBOB-style benchmark suite.  Training is offline, from a mixed
exploration/exploitation trajectory dataset, with a per-action-dimension
decomposed Q-function and a conservative regularizer.

``DACQ_THREADS`` caps the BLAS/OpenMP thread pools.  It is copied to the
variables those libraries read when this package is imported, before any
submodule loads numpy, so it must be set before the process starts (and
before anything else imports numpy).  A library variable that is already
set, such as ``OPENBLAS_NUM_THREADS``, keeps its value.
"""

import os

__version__ = "0.1.0"


def export_threads() -> None:
    """Copy ``DACQ_THREADS``, if set, to the BLAS/OpenMP thread variables
    that are not set yet.

    BLAS reads them once, when numpy loads; exporting them again later
    only reaches child processes."""
    threads = os.environ.get("DACQ_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


export_threads()
