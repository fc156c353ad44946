"""The numeric relations' one tolerance rule (``core.within``), pinned at
its boundary.

Each relation is judged at an expected value and tolerance for which the
subtraction is exact: a residual of exactly the tolerance passes, the next
float beyond it fails, and a value that is not a number of the relation's
kind fails however close it is.  The expected values are 0.0 and 1.0, so
``bool(x)`` and ``complex(x)`` equal them numerically and only their type
decides.  A subclass instance is judged by its built-in value alone, so
its own operators, lying or raising, never run.
"""

import math

import numpy as np
import pytest

from retroharness.core import MutationDescriptor, TrialContext
from retroharness.generators import Rng
from retroharness.suites.elementary import (
    EPS_TRIG,
    reciprocal_integrated_suite,
    sine_backward_suite,
    sine_forward_suite,
)
from retroharness.suites.fourier import fourier_suite

EPS = 2.0**-30


class LyingFloat(float):
    """Claims to be at distance zero from anything."""

    def __sub__(self, other):
        return 0.0


class RaisingFloat(float):
    def __sub__(self, other):
        raise ArithmeticError("this float cannot be subtracted from")


class LyingComplex(complex):
    def __sub__(self, other):
        return 0j


IDENTITY = MutationDescriptor("identity")


def _scalar(suite_factory):
    relation = suite_factory().relation
    return lambda x, value, ctx: relation(x, value, IDENTITY, ctx)


def _sequence(x, value, ctx):
    return fourier_suite().relation([x], [value], IDENTITY, ctx)


# name: (judge, expected value, its tolerance at ctx.eps = EPS, takes complex)
SUITES = {
    "sine_forward": (_scalar(sine_forward_suite), 1.0, EPS, False),
    "sine_backward": (_scalar(sine_backward_suite), 0.0, EPS_TRIG, False),
    "reciprocal": (_scalar(reciprocal_integrated_suite), 1.0, EPS, False),
    "fourier": (_sequence, 1.0, EPS, True),
}

# name: (returned value from the expected value and tolerance, passes);
# a passes of None means "passes where complex values are numbers".
CASES = {
    "tol_above": (lambda x, tol: x + tol, True),
    "tol_below": (lambda x, tol: x - tol, True),
    "next_float_above": (lambda x, tol: math.nextafter(x + tol, math.inf), False),
    "next_float_below": (lambda x, tol: math.nextafter(x - tol, -math.inf), False),
    "nan": (lambda x, tol: math.nan, False),
    "inf": (lambda x, tol: math.inf, False),
    "minus_inf": (lambda x, tol: -math.inf, False),
    "bool": (lambda x, tol: bool(x), False),
    "none": (lambda x, tol: None, False),
    "str": (lambda x, tol: str(x), False),
    "complex": (lambda x, tol: complex(x), None),
    "int_past_float_range": (lambda x, tol: 10**400, False),
    "lying_float_subclass": (lambda x, tol: LyingFloat(x + 1.0), False),
    "raising_float_subclass_at_tol": (lambda x, tol: RaisingFloat(x + tol), True),
    "raising_float_subclass_past_tol": (lambda x, tol: RaisingFloat(x + 1.0), False),
    "lying_complex_subclass": (lambda x, tol: LyingComplex(x + 1.0), False),
    "numpy_float64": (lambda x, tol: np.float64(x + tol), True),
    "numpy_complex128": (lambda x, tol: np.complex128(x + tol), None),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_tolerance_boundary(suite, case):
    judge, x, tol, takes_complex = SUITES[suite]
    make, passes = CASES[case]
    value = make(x, tol)
    if isinstance(value, float) and math.isfinite(value):
        # Exactly at the tolerance, or one float past it (the built-in value's).
        residual = abs(float.__float__(value) - x)
        assert residual == tol if passes else residual > tol
    ctx = TrialContext(rng=Rng(0), eps=EPS, step_cap=1)
    assert judge(x, value, ctx) is (takes_complex if passes is None else passes)
