"""The numeric relations' one tolerance rule (``core._within``), pinned at
its boundary.

Each relation is judged at an expected value and tolerance for which the
subtraction is exact: a residual of exactly the tolerance passes, the next
float beyond it fails, and a value that is not a number of the relation's
kind fails however close it is.  The expected values are 0.0 and 1.0, so
``bool(x)`` and ``complex(x)`` equal them numerically and only their type
decides.
"""

import math

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

IDENTITY = MutationDescriptor.identity()


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
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_tolerance_boundary(suite, case):
    judge, x, tol, takes_complex = SUITES[suite]
    make, passes = CASES[case]
    value = make(x, tol)
    if isinstance(value, float) and math.isfinite(value):
        # Exactly at the tolerance, or one float past it.
        assert abs(value - x) == tol if passes else abs(value - x) > tol
    ctx = TrialContext(rng=Rng(0), eps=EPS, step_cap=1)
    assert judge(x, value, ctx) is (takes_complex if passes is None else passes)
