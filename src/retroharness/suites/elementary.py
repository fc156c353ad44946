"""Minimal suites demonstrating the three testing modes.

Forward mode: a sine implementation under test, checked through a trusted
arcsine.  Backward mode: a trusted arcsine feeding the sine under test,
with the intermediate angle shifted by whole turns.  Integrated mode: the
reciprocal function checked against itself, 1/(1/x) = x.

The seeded bugs are a truncated Taylor series for sine and a constant
offset for the reciprocal.
"""

from __future__ import annotations

import math

from ..core import Mode, Mutator, SuiteDefinition, TrialContext, Variant, builtin_value, within

__all__ = [
    "sine_forward_suite",
    "sine_backward_suite",
    "reciprocal_integrated_suite",
]

# Whole-turn shifts amplify argument-reduction error, so the backward-mode
# relation uses its own absolute tolerance instead of the configured eps.
EPS_TRIG = 1e-9


def _sin(x: float, ctx: TrialContext) -> float:
    return math.sin(x)


def _taylor3_sin(x: float, ctx: TrialContext) -> float:
    # Three-term Taylor series, accurate only near zero.
    return x - x**3 / 6 + x**5 / 120


def _arcsin_trusted(t: float, ctx: TrialContext) -> float | None:
    # Return None for a forward output that is not a real number or is NaN
    # (which the clamp would make -1), and clamp an out-of-range one, so that
    # both surface as relation violations, not crashes of this trusted program.
    t = builtin_value(t)
    if t is None or t != t:
        return None
    return math.asin(min(1.0, max(-1.0, t)))


def _arcsin_ulp_spread(t) -> float:
    """How far arcsin moves across one ulp of ``t`` on each side, clamped to
    [-1, 1]: what a correctly rounded sine can shift the round trip by.
    Near |t| = 1 arcsin's slope makes this far more than ``eps``.  A ``t``
    that is not a float, or is NaN, adds nothing."""
    t = builtin_value(t, (float,))
    if t is None or t != t:
        return 0.0
    below, above = (min(1.0, max(-1.0, math.nextafter(t, side))) for side in (-math.inf, math.inf))
    return math.asin(above) - math.asin(below)


def sine_forward_suite() -> SuiteDefinition:
    """Forward mode: arcsin(sin(x)) = x on [-pi/2, pi/2]."""

    def generate(ctx: TrialContext) -> float:
        return ctx.rng.uniform(-math.pi / 2, math.pi / 2)

    def relation(x, x_prime, mutation, ctx) -> bool:
        # Only a failing check pays for the forward's rounding slack.
        return within(x_prime, x, ctx.eps * max(1.0, abs(x))) or within(
            x_prime, x, ctx.eps * max(1.0, abs(x)) + _arcsin_ulp_spread(ctx.m2_mutated)
        )

    return SuiteDefinition(
        name="sine_forward",
        mode=Mode.FORWARD,
        generator=generate,
        forward=_sin,
        backward=_arcsin_trusted,
        relation=relation,
        variants={
            "correct": Variant(),
            "taylor3": Variant(forward=_taylor3_sin),
        },
    )


def sine_backward_suite() -> SuiteDefinition:
    """Backward mode: sin(arcsin(t) + 2k*pi) = t on [-1, 1]."""

    # One parameter dict per whole-turn count, shared by every report that
    # draws it, so a kept report holds no dict of its own.
    turns = {k: {"k": k} for k in range(-3, 4)}

    def generate(ctx: TrialContext) -> float:
        return ctx.rng.uniform(-1.0, 1.0)

    def add_whole_turns(angle: float, ctx: TrialContext):
        k = ctx.rng.randint(-3, 3)
        return angle + 2.0 * math.pi * k, turns[k]

    def relation(t, t_prime, mutation, ctx) -> bool:
        return within(t_prime, t, EPS_TRIG)

    return SuiteDefinition(
        name="sine_backward",
        mode=Mode.BACKWARD,
        generator=generate,
        forward=_arcsin_trusted,
        backward=_sin,
        relation=relation,
        mutators=(Mutator("add_2kpi", add_whole_turns),),
        variants={
            "correct": Variant(),
            "taylor3": Variant(backward=_taylor3_sin),
        },
    )


def _reciprocal(x: float, ctx: TrialContext) -> float:
    return 1.0 / x


def _reciprocal_off(x: float, ctx: TrialContext) -> float:
    return 1.0 / x + 1e-6


def reciprocal_integrated_suite() -> SuiteDefinition:
    """Integrated mode: 1/(1/x) = x for x away from zero.

    The tolerance scales with x squared because the double reciprocal
    amplifies absolute error for large magnitudes.
    """

    def generate(ctx: TrialContext) -> float:
        while True:
            x = ctx.rng.uniform(-10.0, 10.0)
            if abs(x) >= 1e-3:
                return x

    def relation(x, x_prime, mutation, ctx) -> bool:
        return within(x_prime, x, ctx.eps * max(1.0, x * x))

    return SuiteDefinition(
        name="reciprocal",
        mode=Mode.INTEGRATED,
        generator=generate,
        forward=_reciprocal,
        backward=_reciprocal,
        relation=relation,
        variants={
            "correct": Variant(),
            "off_by_eps": Variant(forward=_reciprocal_off, backward=_reciprocal_off),
        },
    )
