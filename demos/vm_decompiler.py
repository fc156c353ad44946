"""Checking a decompiler by behavior, not by text.

Source is compiled to stack bytecode by a trusted compiler and decompiled
by the program under test.  The reconstructed source need not match the
original text; it must merely behave the same, so the oracle evaluates
both under sampled variable environments and compares values (or error
kinds: two divisions by zero agree).

The seeded bug reverses the operands of SUB and DIV while rebuilding the
tree, which is invisible on purely commutative programs.
"""

from retroharness import SuiteConfig, get_suite, run_suite
from retroharness.expr import parse_infix
from retroharness.suites.vm import compile_expr, decompile

src = "(1+2)*4-a"
code = compile_expr(parse_infix(src))
print("source:", src)
print("bytecode:")
for instr in code:
    print(" ", instr.op if instr.arg is None else f"{instr.op} {instr.arg}")
print("decompiled (correct) :", decompile(code, "correct"))
print("decompiled (swap_sub):", decompile(code, "swap_sub"), "\n")

for variant in ("correct", "swap_sub"):
    summary, reports = run_suite(
        get_suite("vm"), SuiteConfig(iterations=1000, master_seed=42, variant_id=variant)
    )
    print(f"variant {variant!r}: {summary.violations} violations in 1000 trials")

# Commutative-only programs cannot expose the operand swap.
summary, reports = run_suite(
    get_suite("vm"), SuiteConfig(iterations=1000, master_seed=42, variant_id="swap_sub")
)
survivors = [r.m1 for r in reports
             if r.verdict.is_pass and ("-" in r.m1 or "/" in r.m1)]
print("programs with - or / the bug survived on (operands agree under all "
      "sampled environments):")
for example in survivors[:5]:
    print("  ", example)
