"""Expression notation suite (integrated mode).

Postfix strings of single-character tokens are converted to prefix and
back; the round trip must reproduce the input exactly.  The seeded bug
("operand_swap") pops the two operands of the postfix-to-prefix converter
in the wrong order, which mirrors the whole expression tree: the round
trip then returns the postfix rendering of the mirrored tree, so any input
whose tree is not mirror-symmetric is detected.
"""

from __future__ import annotations

from ..core import Mode, SuiteDefinition, TrialContext, Variant, _variant, builtin_value
from ..expr import OPERATORS
from ..generators import gen_postfix

__all__ = [
    "validate_postfix",
    "validate_prefix",
    "postfix_to_prefix",
    "prefix_to_postfix",
    "notation_suite",
]


def _fold(tokens, combine):
    """The module's one stack scan.  An alnum token is pushed; an operator
    pops the top two items and pushes ``combine(op, below, top)``.  Returns
    the single remaining item, or None on an unknown token, an underflow,
    or a final height other than 1."""
    stack = []
    for ch in tokens:
        if ch.isalnum():
            stack.append(ch)
        elif ch in OPERATORS and len(stack) >= 2:
            top = stack.pop()
            stack[-1] = combine(ch, stack[-1], top)
        else:
            return None
    return stack[0] if len(stack) == 1 else None


def validate_postfix(s) -> bool:
    """Stack-validity: tokens are alnum operands or ``+-*/``, evaluation
    never underflows, and exactly one item remains."""
    return _fold(s, lambda op, below, top: below) is not None


def validate_prefix(s: str) -> bool:
    """Stack-validity of the reversed scan used by prefix evaluation."""
    return validate_postfix(reversed(s))


# Prefix item per variant; ``top`` is the operand on top of the stack.
_TO_PREFIX = {
    "correct": lambda op, below, top: f"{op}{below}{top}",
    "operand_swap": lambda op, below, top: f"{op}{top}{below}",
}


def postfix_to_prefix(s: str, variant: str = "correct") -> str:
    """Stack conversion of a postfix string to prefix.

    The correct version emits operator, first operand, second operand,
    the second operand being the one on top of the stack.  The
    "operand_swap" variant emits the top operand first, swapping every
    operand pair.
    """
    prefix = _fold(s, _variant(_TO_PREFIX, variant))
    if prefix is None:
        raise ValueError(f"not a valid postfix expression: {s!r}")
    return prefix


def prefix_to_postfix(s: str) -> str:
    """Reverse-scan stack conversion of a prefix string to postfix."""
    postfix = _fold(reversed(s), lambda op, below, top: f"{top}{below}{op}")
    if postfix is None:
        raise ValueError(f"not a valid prefix expression: {s!r}")
    return postfix


def notation_suite() -> SuiteDefinition:
    """Integrated round trip: prefix_to_postfix(postfix_to_prefix(s)) = s."""

    def generate(ctx: TrialContext) -> str:
        return gen_postfix(ctx.rng, max_internal_nodes=6)

    def forward_correct(s: str, ctx: TrialContext) -> str:
        return postfix_to_prefix(s, "correct")

    def forward_buggy(s: str, ctx: TrialContext) -> str:
        return postfix_to_prefix(s, "operand_swap")

    def backward(s: str, ctx: TrialContext) -> str:
        return prefix_to_postfix(s)

    def relation(s, s_prime, mutation, ctx) -> bool:
        return s == builtin_value(s_prime, (str,))

    return SuiteDefinition(
        name="notation",
        mode=Mode.INTEGRATED,
        generator=generate,
        forward=forward_correct,
        backward=backward,
        relation=relation,
        variants={
            "correct": Variant(),
            "operand_swap": Variant(forward=forward_buggy),
        },
    )
