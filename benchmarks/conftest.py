"""Make ``sqpbs`` (from this checkout's ``src``) and the benchmark modules importable."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness import BLAS_THREAD_VARS  # noqa: E402  (needs the path above)

for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")
