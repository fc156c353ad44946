"""Tiny arithmetic expression language.

Expressions cover integer constants 0-9, variables a-e, the four binary
operators with standard precedence, and parentheses.  The printer emits
minimal parentheses such that re-parsing reconstructs the identical tree.
Division is truncated integer division (rounds toward zero); the bytecode
virtual machine in the vm suite applies operators through the same table,
``APPLY``, so both evaluators agree by construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Const",
    "Var",
    "BinOp",
    "ExprNode",
    "EvalError",
    "ExprSyntaxError",
    "parse_infix",
    "print_infix",
    "eval_ast",
    "variables",
    "trunc_div",
    "APPLY",
    "OPERATORS",
    "VARIABLES",
]

VARIABLES = "abcde"
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprNode"
    right: "ExprNode"


ExprNode = Union[Const, Var, BinOp]


class EvalError(Exception):
    """Evaluation failure; ``kind`` is one of div_by_zero,
    unbound_variable, stack_underflow."""

    def __init__(self, kind: str, message: str = "") -> None:
        super().__init__(message or kind)
        self.kind = kind


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


def trunc_div(a: int, b: int) -> int:
    """Integer division rounding toward zero; raises on zero divisor."""
    if b == 0:
        raise EvalError("div_by_zero", "division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


# Operator symbols and their integer semantics, shared by eval_ast and the
# vm suite's run_vm.  Key order is the order generators draw operators in.
APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": trunc_div}
OPERATORS = "".join(APPLY)


# Digit and variable leaves by their one-character spelling.  Nodes are
# frozen, so parsed, generated and decompiled trees all share these.
_LEAVES = {
    **{digit: Const(int(digit)) for digit in "0123456789"},
    **{name: Var(name) for name in VARIABLES},
}


class _Parser:
    """Precedence climbing over ``_PRECEDENCE``; every operator is left
    associative, and a factor is a digit, a variable or a parenthesized expr."""

    def __init__(self, src: str) -> None:
        self.src = src
        self.pos = 0

    def parse(self) -> ExprNode:
        node = self.expr()
        if self.pos != len(self.src):
            raise ExprSyntaxError(f"unexpected {self.src[self.pos]!r}", self.pos)
        return node

    def expr(self, min_prec: int = 1) -> ExprNode:
        node = self.factor()
        src = self.src
        while self.pos < len(src):
            op = src[self.pos]
            prec = _PRECEDENCE.get(op, 0)
            if prec < min_prec:
                break
            self.pos += 1
            node = BinOp(op, node, self.expr(prec + 1))
        return node

    def factor(self) -> ExprNode:
        src, pos = self.src, self.pos
        if pos == len(src):
            raise ExprSyntaxError("unexpected end of input", pos)
        ch = src[pos]
        self.pos = pos + 1
        leaf = _LEAVES.get(ch)
        if leaf is not None:
            return leaf
        if ch == "(":
            node = self.expr()
            if src[self.pos : self.pos + 1] != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return node
        raise ExprSyntaxError(f"unexpected {ch!r}", pos)


def parse_infix(src: str) -> ExprNode:
    """Parse an infix expression; raises ExprSyntaxError with a position."""
    return _Parser(src).parse()


def print_infix(node: ExprNode) -> str:
    """Minimally parenthesized rendering; re-parsing gives the same tree.

    Operators are left associative, so a right child at equal precedence
    keeps its parentheses (5-(3-1) must not print as 5-3-1).
    """
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    prec = _PRECEDENCE[node.op]
    left = print_infix(node.left)
    if isinstance(node.left, BinOp) and _PRECEDENCE[node.left.op] < prec:
        left = f"({left})"
    right = print_infix(node.right)
    if isinstance(node.right, BinOp) and _PRECEDENCE[node.right.op] <= prec:
        right = f"({right})"
    return f"{left}{node.op}{right}"


def eval_ast(node: ExprNode, env: dict[str, int]) -> int:
    """Reference evaluation; raises EvalError for zero divisors and
    unbound variables."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError("unbound_variable", f"unbound variable {node.name!r}") from None
    return APPLY[node.op](eval_ast(node.left, env), eval_ast(node.right, env))


def variables(node: ExprNode) -> set[str]:
    if isinstance(node, Const):
        return set()
    if isinstance(node, Var):
        return {node.name}
    return variables(node.left) | variables(node.right)
