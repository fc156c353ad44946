import dataclasses
import gc
import math
import tracemalloc

import pytest

from retroharness.core import Outcome, SuiteConfig, TrialContext, run_suite
from retroharness.generators import Rng
from retroharness.suites.elementary import (
    reciprocal_integrated_suite,
    sine_backward_suite,
    sine_forward_suite,
)


class TestSineForward:
    def test_zero_is_a_fixed_point(self, force_input):
        report = force_input(sine_forward_suite(), 0.0)
        assert report.verdict.outcome is Outcome.PASS
        assert report.m1_prime == 0.0

    def test_quarter_pi_round_trips(self, force_input):
        report = force_input(sine_forward_suite(), math.pi / 4)
        assert report.verdict.outcome is Outcome.PASS
        assert abs(report.m1_prime - math.pi / 4) <= 1e-10

    def test_taylor_bug_detected_at_x_1_5(self, force_input):
        # The truncated series overshoots: 1.5 - 1.5^3/6 + 1.5^5/120 > 1,
        # so the trusted inverse saturates at pi/2, far from 1.5.
        overshoot = 1.5 - 1.5**3 / 6 + 1.5**5 / 120
        assert overshoot > 1.0
        report = force_input(sine_forward_suite(), 1.5, variant="taylor3")
        assert report.verdict.outcome is Outcome.VIOLATION
        assert abs(report.m1_prime - math.pi / 2) < 1e-12

    def test_nan_forward_fails_at_minus_half_pi(self, force_input):
        # max(-1.0, nan) is -1.0, so a clamped NaN would read as sin(-pi/2).
        suite = dataclasses.replace(sine_forward_suite(), forward=lambda x, ctx: math.nan)
        report = force_input(suite, -math.pi / 2)
        assert report.m1_prime is None
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_output_whose_comparisons_lie_is_clamped_by_value(self, force_input):
        # Unclamped(5.0) claims to lie inside [-1, 1], so a clamp that ran its
        # comparisons would hand 5.0 to asin and fail the trusted backward.
        class Unclamped(float):
            def __gt__(self, other):
                return True

            def __lt__(self, other):
                return True

        suite = dataclasses.replace(sine_forward_suite(), forward=lambda x, ctx: Unclamped(5.0))
        report = force_input(suite, 0.5)
        assert report.m1_prime == math.pi / 2
        assert report.verdict.outcome is Outcome.VIOLATION

    # Near ±pi/2 a last-bit rounding of sin x moves arcsin by about 1/cos x
    # ulps, far past eps; 1.5707962953029666 failed a benchmark run.
    @pytest.mark.parametrize("x", [1.5707962953029666, math.pi / 2 - 1e-9])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_correct_sine_passes_next_to_half_pi(self, force_input, x, sign):
        report = force_input(sine_forward_suite(), sign * x)
        assert report.verdict.outcome is Outcome.PASS

    @pytest.mark.parametrize("sign", [1, -1])
    def test_correct_sine_passes_the_last_band_before_half_pi(self, sign):
        suite = sine_forward_suite()
        ctx = TrialContext(Rng(0), 1e-10, 1)
        failed = []
        for i in range(20_000):
            x = sign * (math.pi / 2 - 2e-5 * i / 20_000)
            ctx.m2_mutated = suite.forward(x, ctx)
            if not suite.relation(x, suite.backward(ctx.m2_mutated, ctx), None, ctx):
                failed.append(x)
        assert failed == []

    def test_rounding_slack_needs_a_float_forward_output(self):
        # An int, a str or a NaN output adds no slack, so the plain check decides.
        suite = sine_forward_suite()
        x = math.pi / 2 - 1e-9
        ctx = TrialContext(Rng(0), 1e-10, 1)
        for t in (1, "1.0", math.nan):
            ctx.m2_mutated = t
            assert not suite.relation(x, math.pi / 2, None, ctx)
        ctx.m2_mutated = math.sin(x)
        assert suite.relation(x, math.pi / 2, None, ctx)

    def test_correct_variant_holds_across_domain(self):
        summary, _ = run_suite(sine_forward_suite(), SuiteConfig(iterations=10_000))
        assert summary.violations == 0
        assert summary.program_errors == 0


class TestSineBackward:
    def test_zero_passes(self, force_input):
        report = force_input(sine_backward_suite(), 0.0)
        assert report.verdict.outcome is Outcome.PASS

    def test_periodicity_for_half(self):
        # All whole-turn shifts must leave the verdict at pass.
        summary, reports = run_suite(
            sine_backward_suite(), SuiteConfig(iterations=2000, master_seed=5)
        )
        assert summary.violations == 0
        ks = {r.mutation.parameters["k"] for r in reports}
        assert ks == set(range(-3, 4))

    def test_taylor_bug_diverges_after_turn_shift(self, force_input):
        report = force_input(sine_backward_suite(), 0.5, variant="taylor3", seed=3)
        k = report.mutation.parameters["k"]
        if k == 0:
            # Draw a seed whose shift is nonzero to show the gross divergence.
            for seed in range(10):
                report = force_input(sine_backward_suite(), 0.5, variant="taylor3", seed=seed)
                if report.mutation.parameters["k"] != 0:
                    break
        assert report.verdict.outcome is Outcome.VIOLATION
        assert abs(report.m1_prime - 0.5) > 1.0

    def test_buggy_variant_detected_within_1000(self):
        summary, _ = run_suite(
            sine_backward_suite(), SuiteConfig(iterations=1000, variant_id="taylor3")
        )
        assert summary.violations >= 1

    def test_reports_share_seven_parameter_dicts(self):
        # 2,000 reports share the seven {"k": k} dicts and hold about 331
        # bytes each, where a parameter dict per report made it about 515.
        suite, config = sine_backward_suite(), SuiteConfig(iterations=2000)
        run_suite(suite, dataclasses.replace(config, iterations=5, master_seed=1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, reports = run_suite(suite, config)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(reports) == 2000
        assert retained <= 360 * 2000
        shared = {id(r.mutation.parameters): r.mutation.parameters for r in reports}
        assert len(shared) <= 7
        assert all(p == {"k": p["k"]} and -3 <= p["k"] <= 3 for p in shared.values())
        for r in reports:
            assert r.m2_mutated == r.m2 + 2.0 * math.pi * r.mutation.parameters["k"]


class TestReciprocal:
    def test_involution_at_4(self, force_input):
        report = force_input(reciprocal_integrated_suite(), 4.0)
        assert report.verdict.outcome is Outcome.PASS
        assert report.m2 == 0.25
        assert report.m1_prime == 4.0

    def test_involution_at_negative_2(self, force_input):
        report = force_input(reciprocal_integrated_suite(), -2.0)
        assert report.verdict.outcome is Outcome.PASS

    def test_offset_bug_at_4(self, force_input):
        report = force_input(reciprocal_integrated_suite(), 4.0, variant="off_by_eps")
        assert report.verdict.outcome is Outcome.VIOLATION
        deviation = abs(report.m1_prime - 4.0)
        assert 1e-5 < deviation < 1e-4  # about 1.6e-5

    def test_generator_never_emits_near_zero(self):
        _, reports = run_suite(reciprocal_integrated_suite(), SuiteConfig(iterations=2000))
        assert all(abs(r.m1) >= 1e-3 for r in reports)

    def test_correct_variant_is_involution(self):
        summary, _ = run_suite(reciprocal_integrated_suite(), SuiteConfig(iterations=10_000))
        assert summary.violations == 0


@pytest.mark.parametrize(
    "suite_factory",
    [sine_forward_suite, sine_backward_suite, reciprocal_integrated_suite],
    ids=["sine_forward", "sine_backward", "reciprocal"],
)
@pytest.mark.parametrize(
    "wrap",
    [
        lambda program: lambda value, ctx: None,
        lambda program: lambda value, ctx: "x",
        lambda program: lambda value, ctx: complex(program(value, ctx)),
    ],
    ids=["none", "str", "right_value_as_complex"],
)
def test_non_real_output_is_violation(force_input, suite_factory, wrap):
    suite = suite_factory()
    suite = dataclasses.replace(suite, backward=wrap(suite.backward))
    report = force_input(suite, 0.5)
    assert report.verdict.outcome is Outcome.VIOLATION
