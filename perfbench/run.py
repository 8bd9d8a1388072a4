#!/usr/bin/env python3
"""Benchmark entry point; run from the root of a source checkout.

    python3 perfbench/run.py --workload exact_sparse --seed 1 --seconds 30 --trace 0

Uses the ``kcut`` package under ``src/`` of the checkout this file sits in,
never an installed copy, and exits with code 2 when that source is missing.
"""
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    if not (SRC / "kcut" / "__init__.py").is_file():
        print(f"kcut source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    # One BLAS thread, set before numpy is imported: the load is one caller,
    # and an OpenBLAS worker left spinning after kcut's eigh call slowed
    # whatever ran next on the 2-vCPU machine, timings included, by up to 2x.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(sys.argv[1:]))
