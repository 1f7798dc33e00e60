"""Set-up probe: build one workload in a fresh interpreter and print the
``time.perf_counter()`` reading (a system-wide monotonic clock on Linux) at
which it was built.  run.py reads the clock before starting this process,
so the difference is interpreter start, ``import cbo``, config load and the
``build_*`` calls.

    python3 benchmark/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports cbo)

workloads.WORKLOADS[sys.argv[1]].setup(Path(__file__).resolve().parent.parent)
print(repr(time.perf_counter()))
