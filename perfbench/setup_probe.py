"""Set-up time of one workload in a fresh interpreter: importing the jieqi
modules (with the tables they build at import) plus the workload's first
call.  Prints the seconds.  run.py starts this file several times per run.

    python3 perfbench/setup_probe.py <workload> <work dir> <cpu>

The probe runs on core <cpu> only, except that a workload whose first call
starts a pool gets back every core of its CPU set for that call.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path


def main() -> None:
    workload, work_dir, cpu = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    import jieqi.cli  # noqa: F401  (imports every jieqi module)
    imported = time.perf_counter()

    import ops
    import workloads
    from tracer import NullTracer

    ops.check_source(Path.cwd())
    layers = ops.Layers(NullTracer())
    cls, workers = workloads.WORKLOADS[workload]
    if workers != 1:
        os.sched_setaffinity(0, cpus)
    first = time.perf_counter()
    cls.first_call(layers, work_dir, workers or len(cpus))
    done = time.perf_counter()
    print(f"{(imported - start) + (done - first):.9f}")


if __name__ == "__main__":
    main()
