"""Smoke checks of the benchmark itself, at the tiny job size.

    python3 perfbench/smoke.py

1. Every workload, with --trace 0 and with --trace 1, at the default seed:
   the run exits 0, its outputs match the tiny pins, and its last line names
   every metric of BENCHMARK.json with that metric's unit.
2. With one pinned digest corrupted, in a copy of the checkout, a traced
   run reports a non-zero wrong_output_share and correct: false.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 1 if any check fails.  Scratch files go to perfbench/_out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, "perfbench/run.py", "--seed", "42", "--seconds", "1", "--size", "tiny", *args]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    if done.returncode and cwd == ROOT:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def copy_checkout(dest: Path, with_src: bool) -> None:
    """BENCHMARK.json and perfbench/ (and src/) in a fresh directory."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("_out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def result_of(lines: list[str]) -> dict | None:
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = bench("--workload", workload, "--trace", str(trace))
            result = result_of(lines)
            label = f"{workload} --trace {trace}"
            if code or result is None:
                failures.append(f"{label}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: wrong outputs: " + "; ".join(l for l in lines if l.startswith("# wrong")))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != wanted[trace]:
                failures.append(f"{label}: metrics {units} differ from BENCHMARK.json {wanted[trace]}")
            print(f"ok  {label}")
            for name, m in result["metrics"].items():
                print(f"      {name} = {m['value']:.6g} {m['unit']}")

    corrupt = OUT / "corrupt"
    copy_checkout(corrupt, with_src=True)
    pins = json.loads((HERE / "pinned.json").read_text())
    job = next(iter(pins["tiny"]["harness_bound"]))
    pins["tiny"]["harness_bound"][job]["sha256"] = "0" * 64
    (corrupt / "perfbench" / "pinned.json").write_text(json.dumps(pins))
    code, lines = bench("--workload", "harness_bound", "--trace", "1", cwd=corrupt)
    shutil.rmtree(corrupt)
    result = result_of(lines)
    share = result["metrics"]["wrong_output_share"]["value"] if result else None
    if code or result is None or result["correct"] or not share:
        failures.append(f"corrupted pin for {job}: exit {code}, wrong_output_share {share}")
    else:
        print(f"ok  corrupted pin for {job}: wrong_output_share = {share:.4g}, correct = false")

    bare = OUT / "bare"
    copy_checkout(bare, with_src=False)
    code, lines = bench("--workload", "harness_bound", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result_of(lines) is not None:
        failures.append(f"without src/: exit {code}, printed {lines[-1:]}")
    else:
        print(f"ok  without src/: exit {code}, no result")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
