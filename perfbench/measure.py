"""Timed rounds of a workload's jobs, and the output-correctness gate.

Round 0 runs every job at the run's seed and round 1 repeats it exactly, so
that every run checks that two passes give byte-identical records.  Later
rounds draw fresh seeds from the run's seed, so a run averages over many
inputs.  On budget_bound each job's seed is the first candidate whose trials
hold exactly the workload's number of capped trials; which trials cap is
read from a pass at the README's step cap of 10^4, whose verdicts match the
default cap's.

Only the calls into the program are timed: ``run_suite`` or ``cli.main``.
Rendering and hashing records for the gate happens outside them, one record
or one line at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import retroharness
from retroharness import cli
from retroharness.report import trial_record

from workloads import DEFAULT_SEED, README_STEP_CAP, Built, Job, derive_seed

_SUMMARY = re.compile(r"trials: (\d+)  pass: (\d+)  violation: (\d+)  program_error: (\d+)")


@dataclass
class JobRun:
    job: Job
    seed: int
    seconds: float
    counts: tuple[int, int, int] | None  # pass, violation, program_error
    digest: str | None = None
    exit_code: int | None = None
    adapter_errors: int = 0


@dataclass
class Runner:
    """Runs one job through the public API; the traced run swaps in wrapped
    suites and a wrapped ``run_suite``."""

    built: Built
    out_dir: Path
    run_suite: Callable = retroharness.run_suite
    cli_main: Callable = cli.main

    def run(self, job: Job, seed: int, digest: bool) -> JobRun:
        if self.built.workload.via_cli:
            return self._run_cli(job, seed)
        suite = self.built.suites[job.suite]
        config = job.config(seed)
        started = time.perf_counter()
        summary, reports = self.run_suite(suite, config)
        seconds = time.perf_counter() - started
        run = JobRun(job, seed, seconds, (summary.passes, summary.violations, summary.program_errors))
        if digest:
            run.digest = records_digest(reports, suite)
        return run

    def _run_cli(self, job: Job, seed: int) -> JobRun:
        path = self.out_dir / f"report-{job.suite}-{job.variant}.jsonl"
        argv = job.cli_args(seed, str(path))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            started = time.perf_counter()
            code = self.cli_main(argv)
            seconds = time.perf_counter() - started
        match = _SUMMARY.search(printed.getvalue())
        counts = tuple(int(g) for g in match.groups()[1:]) if match else None
        sha, adapter_errors = hashlib.sha256(), 0
        with open(path, "rb") as fh:
            for line in fh:
                sha.update(line)
                adapter_errors += line.count(b"ExternalProgramError")
        return JobRun(job, seed, seconds, counts, sha.hexdigest(), code, adapter_errors)


def records_digest(reports: list, suite) -> str:
    """SHA-256 of ``render_records(reports, suite)``, fed one record at a
    time, so that the gate adds no whole copy of the records to the
    process's peak memory."""
    sha = hashlib.sha256()
    for report in reports:
        sha.update(json.dumps(trial_record(report, suite)).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def problems_of(run: JobRun, pin: dict | None, first: JobRun | None) -> list[str]:
    """Why a job's output is wrong; empty when it is right."""
    if run.counts is None:
        return ["the run printed no verdict counts"]
    passes, violations, errors = run.counts
    n = run.job.iterations
    found = []
    if passes + violations + errors != n:
        found.append(f"verdict counts {run.counts} do not sum to {n}")
    if run.job.variant == "correct" and passes != n:
        found.append(f"{n - passes} of {n} trials of a correct variant did not pass")
    if run.job.variant != "correct" and passes == n:
        found.append("the seeded bug was not detected")
    if run.exit_code is not None and run.exit_code != (0 if passes == n else 1):
        found.append(f"exit code {run.exit_code}")
    if run.adapter_errors:
        found.append(f"{run.adapter_errors} adapter calls raised ExternalProgramError")
    if pin is not None and (list(run.counts) != pin["counts"] or run.digest != pin["sha256"]):
        found.append(f"counts {list(run.counts)} / sha256 {run.digest} differ from the pinned {pin}")
    if first is not None and (run.counts != first.counts or run.digest != first.digest):
        found.append("a second pass of the job gave different records")
    return found


@dataclass
class Round:
    index: int
    runs: list[JobRun]

    @property
    def trials(self) -> int:
        return sum(r.job.iterations for r in self.runs)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.runs)


@dataclass
class Session:
    """The seeds, rounds and gate verdicts of one benchmark run."""

    built: Built
    seed: int
    pins: dict | None  # this workload's pins, used at the default seed only
    first: dict[str, JobRun] = field(default_factory=dict)
    job_runs: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    _budget_seeds: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def jobs(self) -> tuple[Job, ...]:
        return self.built.workload.jobs

    def job_seed(self, round_index: int, job_index: int) -> int:
        base = 0 if round_index == 1 else round_index
        if self.built.workload.capped_per_job:
            return self._budget_seed(base, job_index)
        return self.seed if base == 0 else derive_seed(self.seed, "round", base)

    def _budget_seed(self, base: int, job_index: int) -> int:
        key = (base, job_index)
        if key not in self._budget_seeds:
            job = self.jobs[job_index]
            probe = dataclasses.replace(job, step_cap=README_STEP_CAP)
            suite = self.built.suites[job.suite]
            for k in range(1000):
                candidate = derive_seed(self.seed, "budget", base, job_index, k)
                _, reports = retroharness.run_suite(suite, probe.config(candidate))
                capped = sum(r.verdict.detail.startswith("StepCapExceeded") for r in reports)
                if capped == self.built.workload.capped_per_job:
                    self._budget_seeds[key] = candidate
                    break
            else:
                raise RuntimeError(f"no seed gives {job.name} the wanted number of capped trials")
        return self._budget_seeds[key]

    def run_round(self, runner: Runner, index: int) -> Round:
        runs = []
        for j, job in enumerate(self.jobs):
            run = runner.run(job, self.job_seed(index, j), digest=index in (0, 1))
            pin = self.pins.get(job.name) if self.pins is not None and index in (0, 1) else None
            first = self.first.get(job.name) if index in (0, 1) else None
            found = problems_of(run, pin, first)
            if self.pins is not None and index in (0, 1) and pin is None:
                found.append("no pinned result for the default seed")
            if index == 0 and job.name not in self.first:
                self.first[job.name] = run
            self.job_runs += 1
            if found:
                self.wrong += 1
                self.problems.extend(f"round {index} {job.name}: {p}" for p in found)
            runs.append(run)
        return Round(index, runs)

    def timed_rounds(self, runner: Runner, seconds: float, midway: Callable | None = None) -> list[Round]:
        """Rounds 0 and 1, then more until the next would end after ``seconds``.
        ``midway`` is called once between rounds when half the time is gone;
        its own time does not count."""
        rounds: list[Round] = []
        started = time.perf_counter()
        last = 0.0
        while len(rounds) < 2 or time.perf_counter() - started + last <= seconds:
            if midway is not None and len(rounds) >= 1 and time.perf_counter() - started >= seconds / 2:
                paused = time.perf_counter()
                midway()
                midway = None
                started += time.perf_counter() - paused
            round_started = time.perf_counter()
            rounds.append(self.run_round(runner, len(rounds)))
            last = time.perf_counter() - round_started
        return rounds

    def warm_up(self, runner: Runner) -> None:
        """One untimed pass at a small size and another seed.  budget_bound's
        seed search has already run every job's code at the README cap."""
        if self.built.workload.capped_per_job:
            return
        seed = derive_seed(self.seed, "warm-up")
        for job in self.jobs:
            runner.run(dataclasses.replace(job, iterations=min(job.iterations, 200)), seed, digest=False)


def throughput(rounds: list[Round]) -> float:
    return sum(r.trials for r in rounds) / sum(r.seconds for r in rounds)


def pins_for(pins: dict, size: str, workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return pins.get(size, {}).get(workload, {})
