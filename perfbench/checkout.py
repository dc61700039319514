"""Point a benchmark process at the checkout's own source tree, with BLAS on one thread.

Must run before numpy is imported: the thread pins are read when the BLAS
library loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and import ``specprox`` from ``<checkout>/src``, or exit with an error."""
    for name in BLAS_PINS:
        os.environ[name] = "1"
    if not (SRC / "specprox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no specprox source under {SRC}")
    sys.path.insert(0, str(SRC))
    import specprox

    if Path(specprox.__file__).resolve().parent != SRC / "specprox":
        sys.exit(f"perfbench: specprox was imported from {specprox.__file__}, not from {SRC}")
