"""Process environment shared by the benchmark and the processes it starts.

Import this module before NumPy: it pins every BLAS/OpenMP pool to one
thread, so each run is the plain single-threaded baseline and the
benchmark's processes never compete for cores with each other.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_sources() -> None:
    """Make ``import qmkit`` load ``src/qmkit`` of this checkout and nothing else."""
    if not (SRC / "qmkit" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {SRC / 'qmkit'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
