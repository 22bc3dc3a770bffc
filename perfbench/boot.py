"""Process preparation shared by the benchmark's entry points.

Must run before numpy is imported anywhere in the process: BLAS reads its
thread count once, at load time.
"""

from __future__ import annotations

import os
import sys

# One client on a 2-core host: BLAS stays single-threaded so the second core
# absorbs the host's own noise instead of racing the measured call.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env() -> dict:
    return {var: "1" for var in BLAS_THREAD_VARS}


def prepare(root: str) -> str:
    """Pin BLAS to one thread and put ``<root>/src`` first on the import path.

    Raises SystemExit(2) when the checkout holds no ``src/bernjac`` package:
    the benchmark measures the program in its own checkout and nothing else.
    """
    os.environ.update(blas_env())
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "bernjac", "__init__.py")):
        print(f"error: no bernjac package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    return src
