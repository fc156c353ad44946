"""Workloads of the retroharness benchmark and the suites they run.

A job is one (suite, variant, iterations, step_cap) run.  A workload is a
list of jobs that is run round after round, each round one closed-loop pass
over its jobs from one process.  Inside a workload the iteration counts are
sized so that every job takes a similar share of the round's wall time
(measured on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4), so that a gain
on one suite is not drowned by another.  README.md says why each workload
exists and which layer metric should move which end-to-end metric on it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass

from retroharness import Mode, SuiteConfig, SuiteDefinition, get_suite, register_suite
from retroharness.adapter import ExternalProgram

DEFAULT_SEED = 42

# The README's own command runs factorization/gcd_x at this cap; budget_bound
# also uses it to classify trials before it times them at the default cap.
README_STEP_CAP = 10_000

# budget_bound: every job holds exactly this many trials, of which exactly
# BUDGET_CAPPED exhaust the step cap (about the 40% rate of gcd_x).
BUDGET_TRIALS = {"full": 5, "tiny": 3}
BUDGET_CAPPED = {"full": 2, "tiny": 1}

# Suite name -> the retroharness.suites module that implements it; the
# benchmark's own suites are named bench.<name>.
LAYER = {
    "reciprocal": "suites.elementary",
    "sine_forward": "suites.elementary",
    "sine_backward": "suites.elementary",
    "notation": "suites.notation",
    "fourier": "suites.fourier",
    "factorization": "suites.factorization",
    "factorization_strict": "suites.factorization",
    "vm": "suites.vm",
    "bench_double_halve": "bench.double_halve",
}

NOOP = "bench_noop"
DOUBLE_HALVE = "bench_double_halve"

DOUBLER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "data": req["data"] * 2}), flush=True)
"""

HALVER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "data": req["data"] // 2}), flush=True)
"""


@dataclass(frozen=True)
class Job:
    suite: str
    variant: str
    iterations: int
    step_cap: int | None = None  # None: the program's default

    @property
    def name(self) -> str:
        return f"{self.suite}/{self.variant}"

    def config(self, seed: int) -> SuiteConfig:
        extra = {} if self.step_cap is None else {"step_cap": self.step_cap}
        return SuiteConfig(
            iterations=self.iterations, master_seed=seed, variant_id=self.variant, **extra
        )

    def cli_args(self, seed: int, report_path: str) -> list[str]:
        argv = [
            "run", "--suite", self.suite, "--variant", self.variant,
            "--iterations", str(self.iterations), "--seed", str(seed),
            "--report", report_path,
        ]
        if self.step_cap is not None:
            argv += ["--step-cap", str(self.step_cap)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]
    via_cli: bool = False
    capped_per_job: int = 0  # > 0: seeds are chosen to fix the capped count

    def sized(self, size: str) -> "Workload":
        if size == "full":
            return self
        if self.capped_per_job:
            return dataclasses.replace(
                self,
                jobs=tuple(dataclasses.replace(j, iterations=BUDGET_TRIALS[size]) for j in self.jobs),
                capped_per_job=BUDGET_CAPPED[size],
            )
        return dataclasses.replace(
            self, jobs=tuple(dataclasses.replace(j, iterations=max(20, j.iterations // 50)) for j in self.jobs)
        )


def _pair(suite: str, bug: str, correct_n: int, bug_n: int) -> tuple[Job, Job]:
    return Job(suite, "correct", correct_n), Job(suite, bug, bug_n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "harness_bound",
            "one-libm-call and short-string suites plus a no-op suite: the harness's own per-trial work dominates",
            (
                *_pair("reciprocal", "off_by_eps", 4000, 3500),
                *_pair("sine_forward", "taylor3", 5000, 3600),
                *_pair("sine_backward", "taylor3", 5000, 2300),
                *_pair("notation", "operand_swap", 1500, 1400),
                Job(NOOP, "correct", 5000),
            ),
        ),
        Workload(
            "kernel_bound",
            "fourier, factorization and vm: the suites' own kernels (DFT matrices, rho, the 8-env VM relation) dominate",
            (
                *_pair("fourier", "coef_minus_1j", 450, 250),
                Job("factorization", "correct", 400),
                Job("factorization_strict", "correct", 450),
                *_pair("vm", "swap_sub", 600, 750),
            ),
        ),
        Workload(
            "budget_bound",
            "factorization gcd_x at the default step cap: 2 of every 5 trials spend the whole budget in rho's gcd loop",
            (
                Job("factorization", "gcd_x", BUDGET_TRIALS["full"]),
                Job("factorization_strict", "gcd_x", BUDGET_TRIALS["full"]),
            ),
            capped_per_job=BUDGET_CAPPED["full"],
        ),
        Workload(
            "io_bound",
            "in-process CLI runs with --report plus an out-of-process double/halve suite: report, cli and adapter layers",
            (
                Job("fourier", "coef_minus_1j", 1000),
                Job("factorization", "gcd_x", 1400, step_cap=README_STEP_CAP),
                Job("reciprocal", "off_by_eps", 20000),
                # Smaller than its even share: a round trip wakes a process on
                # the other CPU and takes 60-250 us as the host's load drifts,
                # which at an even share would double the run-to-run spread.
                Job(DOUBLE_HALVE, "correct", 1000),
            ),
            via_cli=True,
        ),
    )
}


def derive_seed(*parts: object) -> int:
    """A 64-bit seed that depends only on the given parts."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def noop_suite() -> SuiteDefinition:
    """The harness floor: constant input, identity programs, always true."""
    return SuiteDefinition(
        name=NOOP,
        mode=Mode.INTEGRATED,
        generator=lambda ctx: 0,
        forward=lambda value, ctx: value,
        backward=lambda value, ctx: value,
        relation=lambda m1, m1_prime, mutation, ctx: True,
    )


def _child(body: str) -> list[str]:
    return [sys.executable, "-u", "-c", body]


def spawn_ready(body: str, role: str, probe: int, expected: int) -> ExternalProgram:
    """Start a child and wait for its first answer, so that a child's
    interpreter start-up is paid here and not by the first trial."""
    adapter = ExternalProgram(_child(body), role=role)
    try:
        answer = adapter(probe)
    except BaseException:
        adapter.close()
        raise
    if answer != expected:
        adapter.close()
        raise RuntimeError(f"{role} child answered {answer!r} to {probe!r}")
    return adapter


@dataclass
class Built:
    """What a workload needs before its first trial: suites and children."""

    workload: Workload
    suites: dict[str, SuiteDefinition] = dataclasses.field(default_factory=dict)
    adapters: list[ExternalProgram] = dataclasses.field(default_factory=list)

    def close(self) -> None:
        for adapter in self.adapters:
            adapter.close()


def build(workload: Workload, spawn=spawn_ready) -> Built:
    """Look up or build the workload's suites.  On io_bound this starts the
    double and halve children and registers the double/halve suite, so that
    the CLI can run it."""
    built = Built(workload)
    try:
        for job in workload.jobs:
            if job.suite in built.suites:
                continue
            if job.suite == NOOP:
                built.suites[NOOP] = noop_suite()
            elif job.suite == DOUBLE_HALVE:
                double = spawn(DOUBLER, "forward", 1, 2)
                built.adapters.append(double)
                halve = spawn(HALVER, "backward", 2, 1)
                built.adapters.append(halve)
                built.suites[DOUBLE_HALVE] = register_suite(
                    SuiteDefinition(
                        name=DOUBLE_HALVE,
                        mode=Mode.FORWARD,
                        generator=lambda ctx: ctx.rng.randint(0, 10**9),
                        forward=double,
                        backward=halve,
                        relation=lambda m1, m1_prime, mutation, ctx: m1 == m1_prime,
                    )
                )
            else:
                built.suites[job.suite] = get_suite(job.suite)
    except BaseException:
        built.close()
        raise
    return built
