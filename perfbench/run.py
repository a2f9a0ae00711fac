"""fragkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fragkit is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md here.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import os
import sys


def _pin_threads() -> None:
    """Cap the BLAS/OpenMP pools at nproc before numpy is first imported."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FRAGKIT_THREADS"):
        os.environ[var] = cap


if __name__ == "__main__":
    _pin_threads()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import fragkit from the checkout's src/: {exc}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(bench.main(sys.argv[1:], _T0))
