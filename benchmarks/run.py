"""Entry point of the nadek benchmark.

    python3 benchmarks/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the package under
``src/`` there, never an installed copy.  BLAS is pinned to one thread
before numpy loads; any parallelism comes from the CLI's ``--threads``.
The last line of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "nadek" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'nadek'}; run from a nadek checkout")
    sys.path.insert(0, str(src))
    import harness

    sys.exit(harness.main())
