"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from the start of this script to the end of the
first LAPACK call: importing sphertrans (and numpy), building the
workload's inputs, and one closed-form norm.
"""

import time

_started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

inputs = workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
workloads.first_lapack_call(inputs)
print(time.perf_counter() - _started)
