"""The pinned run environment: one BLAS thread, convctc from this checkout.

`pin_environment` must run before numpy is first imported, because
OpenBLAS reads its thread count when the library loads.
"""

import os
import sys

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_environment():
    """Fix the BLAS thread count and import convctc from `<checkout>/src`.

    Raises SystemExit when the checkout has no `src/convctc`, so that the
    benchmark never measures some other installed copy.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        raise RuntimeError(f"{BLAS_THREADS} BLAS threads exceed the {len(os.sched_getaffinity(0))} usable cores")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    if not os.path.isfile(os.path.join(SRC, "convctc", "__init__.py")):
        raise SystemExit(f"no convctc sources under {SRC}")
    sys.path.insert(0, SRC)
    import convctc
    if not os.path.abspath(convctc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"convctc imported from {convctc.__file__}, not from {SRC}")


def describe():
    """The environment every result is recorded with."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}
