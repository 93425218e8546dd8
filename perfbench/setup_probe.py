"""Set-up probe: ``python3 perfbench/setup_probe.py <workload> <seed>``.

Imports qmkit, builds the workload's sets and job list, and prints the
monotonic clock, so the caller can time set-up from process start.
"""

import sys
import time

import env

env.use_checkout_sources()
from workloads import WORKLOADS  # noqa: E402  (needs the checkout's sources on the path)

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter())
