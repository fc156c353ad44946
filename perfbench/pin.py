"""Regenerate pinned.json: each job's verdict counts and the SHA-256 of its
JSONL records at the default seed, for the full and the tiny job sizes.

Records must stay byte-identical for a fixed (suite, variant, seed,
iterations), so regenerate the pins only in a change that says why its
records differ:

    python3 perfbench/pin.py

Each workload is pinned in its own interpreter, because io_bound registers
a suite and registration happens once per process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = ("full", "tiny")


def pin_one(size: str, name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    built = workloads.build(workloads.WORKLOADS[name].sized(size))
    try:
        session = measure.Session(built, workloads.DEFAULT_SEED, pins=None)
        runner = measure.Runner(built, HERE / "_out")
        first = session.run_round(runner, 0)
        session.run_round(runner, 1)
    finally:
        built.close()
    if session.problems:
        raise SystemExit("\n".join(session.problems))
    return {r.job.name: {"seed": r.seed, "counts": list(r.counts), "sha256": r.digest} for r in first.runs}


def render(pins: dict) -> str:
    """JSON with one line per job."""
    sizes = []
    for size, by_workload in pins.items():
        workloads = []
        for name, jobs in by_workload.items():
            lines = ",\n".join(f"   {json.dumps(job)}: {json.dumps(pin)}" for job, pin in jobs.items())
            workloads.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
        sizes.append(f" {json.dumps(size)}: {{\n" + ",\n".join(workloads) + "\n }")
    return "{\n" + ",\n".join(sizes) + "\n}\n"


def main() -> int:
    if len(sys.argv) == 3:
        print(json.dumps(pin_one(*sys.argv[1:])))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    (HERE / "_out").mkdir(exist_ok=True)
    pins: dict = {}
    for size in SIZES:
        for name in workloads.WORKLOADS:
            done = subprocess.run([sys.executable, __file__, size, name], capture_output=True, text=True, check=True)
            pins.setdefault(size, {})[name] = json.loads(done.stdout.splitlines()[-1])
            print(f"pinned {size} {name}", file=sys.stderr)
    (HERE / "pinned.json").write_text(render(pins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
