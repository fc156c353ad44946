"""Round-tripping expression notations.

Converting postfix to prefix and back must reproduce the input string
exactly.  Swapping the two operand pops in the postfix-to-prefix converter
mirrors the whole expression tree, so the round trip returns the mirrored
rendering and almost every asymmetric expression exposes the bug.
"""

from retroharness import SuiteConfig, get_suite, run_suite
from retroharness.suites.notation import postfix_to_prefix, prefix_to_postfix

s = "56a*+"  # the tree (5 + (6 * a)) in postfix

print("postfix input           :", s)
print("correct prefix          :", postfix_to_prefix(s, "correct"))
print("correct round trip      :", prefix_to_postfix(postfix_to_prefix(s, "correct")))

swapped = postfix_to_prefix(s, "operand_swap")
print("swapped prefix          :", swapped)
print("swapped round trip      :", prefix_to_postfix(swapped), " !=", s, "\n")

for variant in ("correct", "operand_swap"):
    summary, reports = run_suite(
        get_suite("notation"),
        SuiteConfig(iterations=1000, master_seed=42, variant_id=variant),
    )
    print(f"variant {variant!r}: {summary.violations} violations in 1000 trials")

# The only survivors of the buggy variant are mirror-symmetric trees,
# like a single operand or "aa+".
summary, reports = run_suite(
    get_suite("notation"),
    SuiteConfig(iterations=1000, master_seed=42, variant_id="operand_swap"),
)
passes = [r.m1 for r in reports if r.verdict.is_pass]
print("inputs the bug survives on:", sorted(set(passes))[:10], "...")
