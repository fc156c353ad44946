"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Expected values marked as derived below were computed with
the independent direct-summation oracles defined in this module and frozen.
"""

import cmath
import hashlib
import math
import sys
import time

from retroharness.cli import main as cli_main
from retroharness.core import (
    MutationDescriptor,
    Outcome,
    SuiteConfig,
    TrialContext,
    derive_trial_seed,
    get_suite,
    replay_trial,
    run_suite,
    run_trial,
)
from retroharness.generators import Rng, gen_env, gen_expr_ast, gen_postfix, gen_real_sequence
from retroharness.expr import EvalError, eval_ast, parse_infix
from retroharness.suites.factorization import is_prime
from retroharness.suites.fourier import (
    dft,
    differential_baseline,
    idft,
    metamorphic_baseline,
)
from retroharness.suites.notation import postfix_to_prefix, prefix_to_postfix
from retroharness.suites.vm import compile_expr, decompile, run_vm

PINNED_FACTORIZATION_SEED = 1491780421826728406


class Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.budget}s"
            )


def oracle_transform(seq, coef):
    n = len(seq)
    return [
        sum(seq[i] * cmath.exp(coef * math.pi / n * k * i) for i in range(n))
        for k in range(n)
    ]


def oracle_inverse(seq, coef):
    n = len(seq)
    return [
        sum(seq[k] * cmath.exp(-coef * math.pi / n * k * i) for k in range(n)) / n
        for i in range(n)
    ]


def suite_inputs(master_seed: int, iterations: int):
    """The exact input stream a fourier run with this seed draws."""
    for index in range(iterations):
        rng = Rng(derive_trial_seed(master_seed, index))
        yield gen_real_sequence(rng, 1, 64, -1.0, 1.0), rng


def _pinned_input_suite(name: str, value):
    import dataclasses

    return dataclasses.replace(get_suite(name), generator=lambda ctx: value)


def test_criterion_1_fourier_seeded_bug_detection(tmp_path, capsys):
    with Timer(2.0):
        code = cli_main(
            ["run", "--suite", "fourier", "--variant", "coef_minus_1j",
             "--seed", "42", "--iterations", "1000"]
        )
        out = capsys.readouterr().out
        assert code == 1
        violations = int(out.split("violation: ")[1].split()[0])
        assert violations >= 900

        # Forced input [1,0,1,0] with the identity mutation: the round trip
        # must match the direct-summation oracle exactly.  The buggy pair
        # maps [1,0,1,0] to spectrum real parts [2,1,0,1] and back to real
        # parts [1.0, 0.5, 1.0, 0.5] (derived; indices 1 and 3 violate).
        x = [1.0, 0.0, 1.0, 0.0]
        spectrum = dft(x, "coef_minus_1j")
        round_trip = idft(spectrum, "coef_minus_1j")
        oracle = oracle_inverse(oracle_transform(x, -1j), -1j)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(round_trip, oracle))
        assert all(
            abs(v.real - e) <= 0.01
            for v, e in zip(round_trip, [1.0, 0.5, 1.0, 0.5])
        )
        suite = get_suite("fourier")
        ctx = TrialContext(rng=Rng(0), eps=1e-10, step_cap=1)
        assert suite.relation(x, round_trip, MutationDescriptor("identity"), ctx) is False

        # The published walk-through figures [0.75, 0.68, 0.5, 0.32] arise
        # from feeding the real-part spectrum with a transcription slip,
        # [2,1,0,0], into the buggy inverse; the implementation reproduces
        # that arithmetic exactly (within the stated 0.01).
        prose = idft([2.0, 1.0, 0.0, 0.0], "coef_minus_1j")
        assert all(
            abs(v.real - e) <= 0.01
            for v, e in zip(prose, [0.75, 0.68, 0.5, 0.32])
        )


def test_criterion_2_methodology_separation():
    with Timer(5.0):
        metamorphic_violations = 0
        differential_violations = 0
        inputs = 0
        for x, rng in suite_inputs(42, 1000):
            inputs += 1
            c = rng.random()
            if metamorphic_baseline(x, c, "coef_minus_1j").outcome is Outcome.VIOLATION:
                metamorphic_violations += 1
            verdict = differential_baseline(x, "coef_minus_1j")
            if verdict.outcome is Outcome.VIOLATION:
                differential_violations += 1
        assert inputs == 1000
        assert metamorphic_violations == 0
        assert differential_violations >= 900

        summary, _ = run_suite(
            get_suite("fourier"),
            SuiteConfig(iterations=1000, master_seed=42, variant_id="coef_minus_1j"),
        )
        assert summary.violations >= 900


def test_criterion_3_fourier_correctness():
    with Timer(2.0):
        summary, reports = run_suite(
            get_suite("fourier"), SuiteConfig(iterations=1000, master_seed=42)
        )
        assert summary.violations == 0
        assert summary.program_errors == 0
        assert all(1 <= len(r.m1) <= 64 for r in reports)
        mutators = {r.mutation.name for r in reports}
        assert mutators == {"identity", "add_constant"}
        shifted = [r for r in reports if r.mutation.name == "add_constant"]
        assert shifted and all(r.verdict.outcome is Outcome.PASS for r in shifted)


def test_criterion_4_factorization():
    with Timer(10.0):
        suite = get_suite("factorization")
        summary, reports = run_suite(
            suite, SuiteConfig(iterations=1000, master_seed=42, step_cap=10_000_000)
        )
        assert summary.violations == 0
        assert summary.program_errors == 0
        assert all(2 <= r.m1 <= 10**12 for r in reports)

        strict_summary, strict_reports = run_suite(
            get_suite("factorization_strict"),
            SuiteConfig(iterations=1000, master_seed=42, step_cap=10_000_000),
        )
        assert strict_summary.violations == 0
        assert strict_summary.program_errors == 0
        assert all(
            all(is_prime(f) for f in r.m2) for r in strict_reports
        )

        # Pinned replay of the classic wrong split of 12.
        replay = replay_trial(
            suite, SuiteConfig(variant_id="gcd_x"), PINNED_FACTORIZATION_SEED
        )
        assert replay.m1 == 12
        assert sorted(replay.m2) == [2, 2, 2]
        assert math.prod(replay.m2) == 8
        assert replay.m1_prime == 8
        assert replay.verdict.outcome is Outcome.VIOLATION

        # Detection over 1000 trials.  The work bound here is smaller than
        # the clean-run bound above: walks that would spin for millions of
        # iterations become program errors, and both verdict kinds count
        # as detections.
        buggy_summary, _ = run_suite(
            suite,
            SuiteConfig(iterations=1000, master_seed=42, variant_id="gcd_x", step_cap=10_000),
        )
        assert buggy_summary.violations + buggy_summary.program_errors >= 1


def test_criterion_5_notation():
    with Timer(2.0):
        rng = Rng(42)
        for _ in range(10_000):
            s = gen_postfix(rng, 6)
            assert prefix_to_postfix(postfix_to_prefix(s, "correct")) == s

        assert postfix_to_prefix("56a*+", "operand_swap") == "+*a65"
        assert prefix_to_postfix("+*a65") == "a6*5+"
        report = run_trial(
            _pinned_input_suite("notation", "56a*+"),
            SuiteConfig(variant_id="operand_swap"),
            0,
        )
        assert report.verdict.outcome is Outcome.VIOLATION

        summary, reports = run_suite(
            get_suite("notation"),
            SuiteConfig(iterations=1000, master_seed=42, variant_id="operand_swap"),
        )
        with_ops = [r for r in reports if any(ch in "+-*/" for ch in r.m1)]
        violated = [r for r in with_ops if r.verdict.outcome is Outcome.VIOLATION]
        assert len(violated) / len(with_ops) >= 0.90


def test_criterion_6_vm():
    with Timer(5.0):
        rng = Rng(42)
        for _ in range(10_000):
            tree = gen_expr_ast(rng, 4)
            env = gen_env(rng, "abcde")
            try:
                expected = ("value", eval_ast(tree, env))
            except EvalError as exc:
                expected = ("error", exc.kind)
            try:
                actual = ("value", run_vm(compile_expr(tree), env))
            except EvalError as exc:
                actual = ("error", exc.kind)
            assert actual == expected

        summary, _ = run_suite(get_suite("vm"), SuiteConfig(iterations=1000, master_seed=42))
        assert summary.violations == 0
        assert summary.program_errors == 0

        buggy_summary, reports = run_suite(
            get_suite("vm"),
            SuiteConfig(iterations=1000, master_seed=42, variant_id="swap_sub"),
        )
        with_sub_div = [
            r for r in reports if "-" in r.m1 or "/" in r.m1
        ]
        violated = [r for r in with_sub_div if r.verdict.outcome is Outcome.VIOLATION]
        assert len(violated) / len(with_sub_div) >= 0.70

        report = run_trial(
            _pinned_input_suite("vm", "5-3"), SuiteConfig(variant_id="swap_sub"), 0
        )
        assert report.verdict.outcome is Outcome.VIOLATION
        assert decompile(compile_expr(parse_infix("5-3")), "swap_sub") == "3-5"


def test_criterion_7_elementary_suites():
    with Timer(2.0):
        for name in ("sine_forward", "sine_backward", "reciprocal"):
            summary, _ = run_suite(
                get_suite(name), SuiteConfig(iterations=10_000, master_seed=42)
            )
            assert summary.violations == 0, name
            assert summary.program_errors == 0, name
        for name, variant in (
            ("sine_forward", "taylor3"),
            ("sine_backward", "taylor3"),
            ("reciprocal", "off_by_eps"),
        ):
            summary, _ = run_suite(
                get_suite(name),
                SuiteConfig(iterations=1000, master_seed=42, variant_id=variant),
            )
            assert summary.violations >= 1, (name, variant)


DETERMINISM_PAIRS = [
    ("fourier", "correct", {}),
    ("fourier", "coef_minus_1j", {}),
    ("factorization", "correct", {}),
    ("factorization", "gcd_x", {"--step-cap": "20000"}),
    ("factorization_strict", "correct", {}),
    ("notation", "correct", {}),
    ("notation", "operand_swap", {}),
    ("vm", "correct", {}),
    ("vm", "swap_sub", {}),
    ("sine_forward", "correct", {}),
    ("sine_forward", "taylor3", {}),
    ("sine_backward", "correct", {}),
    ("sine_backward", "taylor3", {}),
    ("reciprocal", "correct", {}),
    ("reciprocal", "off_by_eps", {}),
]


def test_criterion_8_report_determinism(tmp_path, capsys):
    for suite, variant, extra in DETERMINISM_PAIRS:
        digests = []
        for run in ("a", "b"):
            path = tmp_path / f"{suite}_{variant}_{run}.jsonl"
            argv = ["run", "--suite", suite, "--variant", variant,
                    "--iterations", "40", "--seed", "42", "--report", str(path)]
            for flag, value in extra.items():
                argv += [flag, value]
            cli_main(argv)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1], (suite, variant)


def test_criterion_9_external_adapter():
    from retroharness.adapter import ExternalProgram
    from retroharness.core import Mode, SuiteDefinition

    echo = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "data": req["data"]}), flush=True)
"""
    stall = """
import sys, time
sys.stdin.readline()
time.sleep(60)
"""

    def adapter_suite(program):
        return SuiteDefinition(
            name="loopback",
            mode=Mode.INTEGRATED,
            generator=lambda ctx: ctx.rng.randint(0, 10**9),
            forward=program,
            backward=program,
            relation=lambda m1, m1p, mutation, ctx: m1 == m1p,
        )

    with ExternalProgram([sys.executable, "-u", "-c", echo]) as program:
        summary, _ = run_suite(adapter_suite(program), SuiteConfig(iterations=100))
    assert summary.passes == 100

    with ExternalProgram([sys.executable, "-u", "-c", stall], timeout=0.5) as program:
        summary, reports = run_suite(adapter_suite(program), SuiteConfig(iterations=1))
    assert summary.program_errors == 1
    assert "timed out" in reports[0].verdict.detail
