"""Testing a randomized factorizer without knowing any factorizations.

Multiplication is the trusted inverse of factorization: whatever factors
Pollard's rho returns, their product must be the input.  A classic seeded
bug computes gcd(|x - y|, x) instead of gcd(|x - y|, n); the extracted
"divisor" then need not divide n and the recursion splits n incorrectly.

Because the walk is randomized, the famous wrong answer for 12 is pinned
by a replay seed whose trial stream draws n = 12 and then steers the walk
to [2, 2, 2].
"""

import math

from retroharness import Rng, SuiteConfig, get_suite, replay_trial, run_suite
from retroharness.suites.factorization import pollards_rho

print("correct factorization of 12 :", sorted(pollards_rho(12, "correct", Rng(0))))

PINNED_SEED = 1491780421826728406
suite = get_suite("factorization")
report = replay_trial(suite, SuiteConfig(variant_id="gcd_x"), PINNED_SEED)
print("buggy run on n =", report.m1,
      "returns", report.m2,
      "-> product", math.prod(report.m2))
print("verdict:", report.verdict.outcome.value, "-", report.detail, "\n")

summary, _ = run_suite(suite, SuiteConfig(iterations=500, master_seed=42))
print(f"correct variant: {summary.passes}/{summary.iterations} pass "
      f"({summary.wall_time:.2f}s)")

# A modest work bound turns the bug's endless gcd(...) = 1 walks into
# program errors instead of hangs; both verdict kinds expose the bug.
summary, _ = run_suite(
    suite, SuiteConfig(iterations=500, master_seed=42, variant_id="gcd_x", step_cap=10_000)
)
print(f"buggy variant  : {summary.violations} violations + "
      f"{summary.program_errors} program errors in {summary.iterations} trials "
      f"({summary.wall_time:.2f}s)")
print("first failing trial seed:", summary.first_failure_seed,
      "(replayable with 'retroharness replay')")
