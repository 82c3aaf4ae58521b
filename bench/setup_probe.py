"""Time one set-up in a fresh interpreter: import troptoric and build a
workload's inputs.  Prints the seconds taken as its last line.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR SRC   (PYTHONPATH=SRC)
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports troptoric)

workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
print(time.perf_counter() - t0)
