"""The retroharness benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload harness_bound --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (trials_per_s, setup_s,
peak_rss_mb) measured with tracing off.  With ``--trace 1`` it reports the
per-layer metrics instead, derived from the span file of a traced replay of
the same rounds (see spans.py).  Either way every job's output goes through
the correctness gate in measure.py, and the last line of standard output is

    {"correct": ..., "attempted": <job runs>, "failed": <wrong jobs>, "metrics": {...}}

Lines before it start with ``#`` and describe the environment, each job's
throughput and any problem found.  Files go to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed per run, in three equal groups: before, halfway
# through and after the timed rounds, so that the median spans the run.  One
# more runs first and is not counted.
SETUP_PROBES = 12


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a small job set for smoke checks")
    return parser.parse_args(argv)


def environment(args: argparse.Namespace, load_at_start: tuple[float, ...]) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": model,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "load_avg_at_start": load_at_start,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # Unset means OpenBLAS's default of one thread per CPU; fourier's
        # matmuls then run on a second thread, visible in cpu_per_wall.
        "blas_threads": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup_probes(workload: str, probes: int) -> list[dict]:
    """What setup_probe.py prints for ``probes`` fresh interpreters, one at a time."""
    found = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        found.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return found


def measure_retained(session, out_dir: Path, counters: dict) -> None:
    """tracemalloc size of what run_suite returns, over round 0's jobs at up
    to 500 trials each.  budget_bound's jobs run here at the README's step
    cap: the verdicts and records match the default cap's, and tracemalloc
    would make each capped trial's 10^7 steps many times slower."""
    import retroharness
    from retroharness import cli
    from measure import Runner
    from workloads import README_STEP_CAP

    def measuring(suite, config):
        before = tracemalloc.get_traced_memory()[0]
        result = retroharness.run_suite(suite, config)
        counters["core.retained_bytes"] += tracemalloc.get_traced_memory()[0] - before
        counters["core.retained_trials"] += config.iterations
        return result

    runner = Runner(session.built, out_dir, run_suite=measuring)
    saved, cli.run_suite = cli.run_suite, measuring
    tracemalloc.start()
    try:
        for j, job in enumerate(session.jobs):
            small = dataclasses.replace(job, iterations=min(job.iterations, 500))
            if session.built.workload.capped_per_job:
                small = dataclasses.replace(small, step_cap=README_STEP_CAP)
            runner.run(small, session.job_seed(0, j), digest=False)
    finally:
        tracemalloc.stop()
        cli.run_suite = saved


def run(args: argparse.Namespace, load_at_start: tuple[float, ...]) -> dict:
    import retroharness
    from retroharness import cli
    import measure
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload].sized(args.size)
    env = environment(args, load_at_start)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    pins = measure.pins_for(json.loads((HERE / "pinned.json").read_text()), args.size, workload.name, args.seed)
    setup: list[dict] = []
    probing_s = 0.0

    def probe_group() -> None:
        nonlocal probing_s
        started = time.perf_counter()
        setup.extend(setup_probes(workload.name, SETUP_PROBES // 3))
        probing_s += time.perf_counter() - started

    if args.trace == 0:
        setup_probes(workload.name, 1)  # may compile bytecode; not counted
        probe_group()
        probing_s = 0.0  # cpu_per_wall leaves out only the midway group

    tracer = spans.Tracer() if args.trace else None
    spawn = tracer.wrap("adapter.spawn", workloads.spawn_ready) if tracer else workloads.spawn_ready
    built = workloads.build(workload, spawn=spawn)
    try:
        session = measure.Session(built, args.seed, pins)
        runner = measure.Runner(built, out_dir)
        for j in range(len(workload.jobs)):
            session.job_seed(0, j)
        session.warm_up(runner)
        cpu_started, wall_started = cpu_seconds(), time.perf_counter()
        rounds = session.timed_rounds(
            runner, args.seconds / 2 if tracer else args.seconds, midway=None if tracer else probe_group
        )
        env["cpu_per_wall"] = (cpu_seconds() - cpu_started) / (time.perf_counter() - wall_started - probing_s)
        env["threads"] = thread_count()

        if tracer:
            traced_suites = {
                name: suite if name == workloads.NOOP else tracer.trace_suite(suite, workloads.LAYER[name])
                for name, suite in built.suites.items()
            }
            traced_runner = measure.Runner(
                dataclasses.replace(built, suites=traced_suites), out_dir,
                run_suite=tracer.wrap("core.run_suite", retroharness.run_suite),
                cli_main=tracer.wrap("cli.main", cli.main),
            )
            traced = []
            with tracer.patched(traced_suites):
                started = time.perf_counter()
                for untraced_round in rounds:
                    traced.append(session.run_round(traced_runner, untraced_round.index))
                    if time.perf_counter() - started >= args.seconds / 4:
                        break
            measure_retained(session, out_dir, tracer.counters)
            tracer.counters.update(
                untraced_trials_per_s=measure.throughput(rounds[: len(traced)]),
                traced_trials_per_s=measure.throughput(traced),
                traced_rounds=len(traced),
                job_runs=session.job_runs,
                wrong_jobs=session.wrong,
            )
    finally:
        built.close()
    if args.trace == 0:  # the midway group is missing if the rounds ended early
        setup.extend(setup_probes(workload.name, SETUP_PROBES - len(setup)))

    metrics: dict[str, float]
    if tracer:
        span_file = out_dir / f"spans-{workload.name}.csv"
        tracer.write(span_file, env)
        metrics = spans.per_layer(span_file)
    else:
        metrics = {
            "trials_per_s": measure.throughput(rounds),
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}

    by_job: dict[str, list] = {}
    for rnd in rounds:
        for jr in rnd.runs:
            by_job.setdefault(jr.job.name, []).append(jr)
    jobs = {
        name: {
            "trials": sum(r.job.iterations for r in runs),
            "seconds": sum(r.seconds for r in runs),
            "trials_per_s": sum(r.job.iterations for r in runs) / sum(r.seconds for r in runs),
            "round0": {"seed": runs[0].seed, "counts": runs[0].counts, "sha256": runs[0].digest},
        }
        for name, runs in by_job.items()
    }
    return {
        "env": env,
        "setup_s_samples": [p["setup_s"] for p in setup],
        "setup_wall_s_samples": [p["wall_s"] for p in setup],
        "rounds": len(rounds),
        "round_trials_per_s": [r.trials / r.seconds for r in rounds],
        "trials": sum(r.trials for r in rounds),
        "jobs": jobs,
        "problems": session.problems,
        "result": {
            "correct": session.wrong == 0,
            "attempted": session.job_runs,
            "failed": session.wrong,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (ROOT / "src" / "retroharness" / "__init__.py").is_file():
        print(f"error: no src/retroharness under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2

    outcome = run(args, load_at_start)
    out_file = HERE / "_out" / f"result-{args.workload}-trace{args.trace}.json"
    out_file.write_text(json.dumps(outcome, indent=1) + "\n")
    print(f"# env {json.dumps(outcome['env'])}")
    print(f"# {outcome['trials']} trials in {outcome['rounds']} rounds")
    if outcome["setup_s_samples"]:
        print(f"# setup_s samples (CPU s) {outcome['setup_s_samples']}")
        print(f"# set-up wall s samples {outcome['setup_wall_s_samples']}")
    for name, job in outcome["jobs"].items():
        print(f"# job {name}: {job['trials_per_s']:.1f} trials/s over {job['trials']} trials")
    for problem in outcome["problems"]:
        print(f"# wrong: {problem}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
