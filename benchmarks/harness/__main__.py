"""Entry point: pin BLAS to one thread, find ``src/``, hand over to the CLI."""

import os
import sys
from pathlib import Path

# Before NumPy is imported: the box has two cores and the workloads
# already occupy them (two clients, two serve workers).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from benchmarks.harness.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
