"""Benchmark entry point.

    python3 perfbench/run.py --workload protocol|ideal|observed \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Each run starts one fresh interpreter
for its workload (``workload.py``), single-threaded: numpy's OpenBLAS
threads were seen spinning on a second core after the inputs were
built, so BLAS and OpenMP get one thread, and no process pool is used.
Peak RSS then belongs to that one workload.  The last line of standard
output is the result object.  The exit code is nonzero when the
simulator sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("protocol", "ideal", "observed")
#: A run must end within 180 s.
TIMEOUT_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Host-speed-normalised simulator benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="large",
                    help="input preset; the benchmark's own tests use 'smoke'")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
    ]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {TIMEOUT_S:.0f} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
