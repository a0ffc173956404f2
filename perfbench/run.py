"""Run one semloc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nominal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list every metric with its unit. See
perfbench/README.md.
"""

import argparse
import os
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    # The workload runs in this one process on one compute thread: the BLAS
    # pool is sized when numpy loads, so pin it before anything imports numpy.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = CHECKOUT / "src"
    if not (src / "semloc" / "__init__.py").is_file():
        print(f"perfbench: no semloc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench  # after the pinning and the path: it imports numpy and semloc

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return bench.main(args, CHECKOUT)


if __name__ == "__main__":
    sys.exit(main())
