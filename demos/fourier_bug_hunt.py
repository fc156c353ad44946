"""Hunting a seeded transform bug four ways.

A discrete Fourier transform whose exponent coefficient was typed as -1j
instead of -2j still produces plausible-looking spectra.  This script
compares how different oracles fare against it: a hand-written fixture, a
differential check against numpy.fft, a metamorphic relation, and the
round-trip (retromorphic) check idft(dft(x)) = x.
"""

from retroharness import SuiteConfig, get_suite, run_suite
from retroharness.suites.fourier import (
    dft,
    differential_baseline,
    idft,
    manual_fixture_check,
    metamorphic_baseline,
)

x = [1.0, 0.0, 1.0, 0.0]

print("input x =", x)
print("correct spectrum :", [round(v.real, 3) for v in dft(x, "correct")])
print("buggy spectrum   :", [round(v.real, 3) for v in dft(x, "coef_minus_1j")])
# (real parts shown; the relations below compare complex values)

round_trip = idft(dft(x, "coef_minus_1j"), "coef_minus_1j")
print("buggy round trip :", [round(v.real, 3) for v in round_trip])
print("  -> indices 1 and 3 should be 0.0; the relation is violated\n")

print("manual fixture, correct variant:", manual_fixture_check("correct").outcome.value)
print("manual fixture, buggy variant  :", manual_fixture_check("coef_minus_1j").outcome.value)

print("differential vs numpy.fft, buggy:",
      differential_baseline(x, "coef_minus_1j").outcome.value)

# The metamorphic relation (add c to x_0, every spectrum entry gains c)
# holds for the buggy transform as well: the first input sample is always
# weighted by exp(0) = 1, whatever the exponent coefficient.
print("metamorphic, buggy             :",
      metamorphic_baseline(x, 1.0, "coef_minus_1j").outcome.value,
      " <- the bug slips through\n")

for variant in ("correct", "coef_minus_1j"):
    summary, _ = run_suite(
        get_suite("fourier"),
        SuiteConfig(iterations=1000, master_seed=42, variant_id=variant),
    )
    print(f"round-trip suite, variant {variant!r}: "
          f"{summary.violations} violations in {summary.iterations} trials "
          f"({summary.wall_time:.2f}s)")
