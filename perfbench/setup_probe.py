"""Time one workload's set-up in this fresh interpreter and print it as JSON.

Set-up is ``import retroharness`` (numpy plus the registration of the
built-in suites) and building the workload's suites, which on io_bound
starts the adapter children and waits for their first answer.  Importing
the benchmark's own modules is not counted.  Used by run.py:

    python3 perfbench/setup_probe.py --workload io_bound

``setup_s`` is CPU seconds: those of this process's main thread, which does
all of the set-up, plus those of the adapter children it started and
reaped.  Wall seconds (``wall_s``) are printed too.  They are not the metric,
because they also count time spent waiting for a CPU: OpenBLAS starts a
thread per CPU when numpy is imported, and its threads spin for a while,
competing with the main thread and with other processes.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    wall, cpu = time.perf_counter(), time.thread_time()
    import retroharness  # noqa: F401

    import_wall, import_cpu = time.perf_counter() - wall, time.thread_time() - cpu
    import workloads

    wall, cpu = time.perf_counter(), time.thread_time()
    built = workloads.build(workloads.WORKLOADS[args.workload])
    build_wall, build_cpu = time.perf_counter() - wall, time.thread_time() - cpu
    built.close()
    print(json.dumps({
        "setup_s": import_cpu + build_cpu + children_cpu(),
        "wall_s": import_wall + build_wall,
        "import_wall_s": import_wall,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
