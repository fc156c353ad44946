"""Discrete Fourier transform suite with metamorphic and differential
baselines.

The transform pair is the direct O(N^2) summation

    X_k = sum_n x_n * exp(-2j*pi*k*n/N)        (forward)
    x_n = (1/N) * sum_k X_k * exp(+2j*pi*k*n/N) (inverse)

The seeded bug ("coef_minus_1j") types the exponent coefficient as -1j
instead of -2j in both directions, mirroring a shared-implementation
transform selected by an option flag.  Relations compare complex values
as ``abs(d) <= eps``, so a NaN never passes and an imaginary part counts as
much as a real one; the generated inputs are real sequences, so a correct
round trip returns imaginary parts at rounding level.

numpy is imported at the first transform, not with the module, so a process
that never runs a transform never loads it.

Each transform multiplies by the matrix exp(coef*pi/N * k*j), built from
two tables: the exponentials of the distinct products k*j, and an index of
each product in them.  For lengths up to ``MAX_LENGTH`` (64, the longest
generated input) the tables are built once per process per (length,
coefficient) on first use, about 2.5 MB for all of them.  Longer inputs
build the same tables per call and keep nothing.  Either way every matrix
entry is the same ``exp`` of the same argument, so results are
bit-identical to building the matrix per call.

Besides the round-trip suite, two baseline checks over the same inputs are
provided for methodology comparison: a metamorphic relation (adding c to
x_0 shifts every spectrum entry by c) that the seeded bug satisfies
identically, and a differential check against a radix-2 FFT.
"""

from __future__ import annotations

import cmath
import functools
from typing import TYPE_CHECKING

from ..core import (
    IDENTITY_MUTATOR,
    Mode,
    Mutator,
    SuiteConfig,
    SuiteDefinition,
    TrialContext,
    Variant,
    Verdict,
    _variant,
    _within,
)
from ..generators import gen_real_sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "dft",
    "idft",
    "fft",
    "pad_to_pow2",
    "fourier_suite",
    "metamorphic_baseline",
    "differential_baseline",
    "manual_fixture_check",
]

# Exponent coefficient per variant; the buggy one is -1j where -2j belongs.
_COEF = {"correct": -2j, "coef_minus_1j": -1j}


# The longest sequence the suite generates; tables are kept only up to it.
MAX_LENGTH = 64


def _tables(n: int, coef: complex) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(twiddles, index)`` for which ``twiddles[index]`` is
    ``np.exp(coef * np.pi / n * np.outer(k, k))`` bit for bit: ``twiddles``
    holds the ``exp`` of each distinct product k*j (0 <= k, j < n), and the
    n x n ``index`` places each product in it."""
    import numpy as np

    k = np.arange(n)
    products, index = np.unique(np.outer(k, k), return_inverse=True)
    twiddles = np.exp(coef * np.pi / n * products)
    index = index.reshape(n, n).astype(np.min_scalar_type(products.size - 1))
    twiddles.flags.writeable = index.flags.writeable = False
    return twiddles, index


# Built on first use per (n, coef) and kept for the process.
_kept_tables = functools.cache(_tables)


def _transform(x, coef: complex) -> np.ndarray:
    import numpy as np

    a = np.asarray(list(x), dtype=complex)
    if a.size == 0:
        raise ValueError("empty sequence")
    build = _kept_tables if a.size <= MAX_LENGTH else _tables
    twiddles, index = build(a.size, coef)
    return np.take(twiddles, index) @ a


def dft(x, variant: str = "correct") -> list[complex]:
    """Direct-summation transform; O(N^2)."""
    return _transform(x, _variant(_COEF, variant)).tolist()


def idft(x, variant: str = "correct") -> list[complex]:
    """Inverse transform: conjugated exponent and 1/N scaling."""
    y = _transform(x, -_variant(_COEF, variant))
    return (y / y.size).tolist()


def fft(x) -> list[complex]:
    """Radix-2 Cooley-Tukey transform; the length must be a power of two."""
    xs = [complex(v) for v in x]
    n = len(xs)
    if n == 0 or n & (n - 1):
        raise ValueError(f"fft length must be a power of two, got {n}")
    if n == 1:
        return xs
    even = fft(xs[0::2])
    odd = fft(xs[1::2])
    twiddled = [cmath.exp(-2j * cmath.pi * k / n) * odd[k] for k in range(n // 2)]
    return [even[k] + twiddled[k] for k in range(n // 2)] + [
        even[k] - twiddled[k] for k in range(n // 2)
    ]


def _first_miss(actual, expected, eps: float) -> int | None:
    """Index of the first value in ``actual`` that is not a number within
    ``eps`` of its expected value (``core._within``), or None."""
    for i, (a, e) in enumerate(zip(actual, expected)):
        if not _within(a, e, eps, (int, float, complex)):
            return i
    return None


def pad_to_pow2(x) -> list:
    """Zero-pad a sequence up to the next power-of-two length."""
    xs = list(x)
    n = max(1, len(xs))
    target = 1
    while target < n:
        target *= 2
    return xs + [0.0] * (target - len(xs))


def fourier_suite() -> SuiteDefinition:
    """Integrated round trip: inverse(transform(x)) = x, imaginary parts
    included.

    Mutators: identity, and adding a constant c in [0, 1) to every
    spectrum entry, which must land entirely on x_0.  A returned sequence
    that is not a list or tuple of int, float or complex items (bools
    excluded) of the input's length is a violation.
    """

    def generate(ctx: TrialContext) -> list[float]:
        return gen_real_sequence(ctx.rng, 1, MAX_LENGTH, -1.0, 1.0)

    def forward_correct(x, ctx: TrialContext):
        return dft(x, "correct")

    def backward_correct(x, ctx: TrialContext):
        return idft(x, "correct")

    def forward_buggy(x, ctx: TrialContext):
        return dft(x, "coef_minus_1j")

    def backward_buggy(x, ctx: TrialContext):
        return idft(x, "coef_minus_1j")

    def add_constant(spectrum, ctx: TrialContext):
        c = ctx.rng.random()
        return [value + c for value in spectrum], {"c": c}

    def relation(x, x_prime, mutation, ctx) -> bool:
        if not isinstance(x_prime, (list, tuple)) or len(x_prime) != len(x):
            return False
        c = mutation.parameters.get("c", 0.0)
        return _first_miss(x_prime, [x[0] + c, *x[1:]], ctx.eps) is None

    return SuiteDefinition(
        name="fourier",
        mode=Mode.INTEGRATED,
        generator=generate,
        forward=forward_correct,
        backward=backward_correct,
        relation=relation,
        mutators=(IDENTITY_MUTATOR, Mutator("add_constant", add_constant)),
        variants={
            "correct": Variant(),
            "coef_minus_1j": Variant(forward=forward_buggy, backward=backward_buggy),
        },
    )


def metamorphic_baseline(
    x, c: float, variant: str = "correct", eps: float = SuiteConfig.eps
) -> Verdict:
    """Single-program check: adding c to x_0 must add c to every X_k.

    The seeded exponent bug still maps the first input sample with weight
    exp(0) = 1, so this relation holds for it identically and the check
    passes on the buggy variant.
    """
    xs = list(x)
    base = dft(xs, variant)
    shifted = dft([xs[0] + c] + xs[1:], variant)
    i = _first_miss([s - b for s, b in zip(shifted, base)], [c] * len(xs), eps)
    if i is None:
        return Verdict.passed()
    return Verdict.violation(
        f"metamorphic relation violated at index {i}: "
        f"base={base[i]!r} shifted={shifted[i]!r} c={c!r}"
    )


def differential_baseline(x, variant: str = "correct", eps: float = SuiteConfig.eps) -> Verdict:
    """Compare the direct transform against the radix-2 FFT's complex values.

    The input length must already be a power of two (:func:`fft` raises
    ``ValueError`` otherwise); use :func:`pad_to_pow2` on generated
    sequences first.
    """
    xs = list(x)
    reference = fft(xs)
    direct = dft(xs, variant)
    i = _first_miss(direct, reference, eps)
    if i is None:
        return Verdict.passed()
    return Verdict.violation(
        f"implementations disagree at index {i}: "
        f"direct={direct[i]!r} fft={reference[i]!r}"
    )


def manual_fixture_check(variant: str = "correct", eps: float = SuiteConfig.eps) -> Verdict:
    """The classic hand-written fixture: [1, 0, 1, 0] transforms to
    [2, 0, 2, 0]."""
    expected = [2.0, 0.0, 2.0, 0.0]
    actual = dft([1.0, 0.0, 1.0, 0.0], variant)
    if _first_miss(actual, expected, eps) is None:
        return Verdict.passed()
    return Verdict.violation(f"expected {expected}, got {actual!r}")
