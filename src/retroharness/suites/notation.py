"""Expression notation suite (integrated mode).

Postfix strings of single-character tokens are converted to prefix and
back; the round trip must reproduce the input exactly.  The seeded bug
("operand_swap") pops the two operands of the postfix-to-prefix converter
in the wrong order, which mirrors the whole expression tree: the round
trip then returns the postfix rendering of the mirrored tree, so any input
whose tree is not mirror-symmetric is detected.
"""

from __future__ import annotations

from ..core import Mode, SuiteDefinition, TrialContext, Variant
from ..expr import OPERATORS
from ..generators import gen_postfix

__all__ = [
    "OPERATORS",
    "validate_postfix",
    "validate_prefix",
    "postfix_to_prefix",
    "prefix_to_postfix",
    "notation_suite",
]


def _is_operand(ch: str) -> bool:
    return ch.isalnum()


def validate_postfix(s) -> bool:
    """Stack-validity: tokens are alnum operands or ``+-*/``, evaluation
    never underflows, and exactly one item remains."""
    depth = 0
    for ch in s:
        if _is_operand(ch):
            depth += 1
        elif ch in OPERATORS:
            if depth < 2:
                return False
            depth -= 1
        else:
            return False
    return depth == 1


def validate_prefix(s: str) -> bool:
    """Stack-validity of the reversed scan used by prefix evaluation."""
    return validate_postfix(reversed(s))


def postfix_to_prefix(s: str, variant: str = "correct") -> str:
    """Stack conversion of a postfix string to prefix.

    The correct version pops the second operand first (it is on top) and
    emits operator, first operand, second operand.  The "operand_swap"
    variant pops in the written order, swapping every operand pair.
    """
    if variant not in ("correct", "operand_swap"):
        raise ValueError(f"unknown variant {variant!r}")
    if not validate_postfix(s):
        raise ValueError(f"not a valid postfix expression: {s!r}")
    stack: list[str] = []
    for ch in s:
        if _is_operand(ch):
            stack.append(ch)
        else:
            if variant == "operand_swap":
                operand1 = stack.pop()
                operand2 = stack.pop()
            else:
                operand2 = stack.pop()
                operand1 = stack.pop()
            stack.append(f"{ch}{operand1}{operand2}")
    return stack[0]


def prefix_to_postfix(s: str) -> str:
    """Reverse-scan stack conversion of a prefix string to postfix."""
    if not validate_prefix(s):
        raise ValueError(f"not a valid prefix expression: {s!r}")
    stack: list[str] = []
    for ch in reversed(s):
        if _is_operand(ch):
            stack.append(ch)
        else:
            operand1 = stack.pop()
            operand2 = stack.pop()
            stack.append(f"{operand1}{operand2}{ch}")
    return stack[0]


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
        return s == s_prime

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
