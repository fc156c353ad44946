"""Compiler/decompiler suite (backward mode).

Source expressions are compiled to a stack-machine bytecode by a trusted
compiler; the decompiler under test must reconstruct source whose observed
behavior matches.  The oracle is behavioral: both sources are evaluated
under several sampled variable environments, and agreement means equal
integers or an identical error kind (two divisions by zero agree).

The seeded bug ("swap_sub") reverses the operand order of SUB and DIV
nodes while rebuilding the tree, a classic operand-order decompiler
defect that is invisible on purely commutative programs.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from ..core import Mode, SuiteDefinition, TrialContext, Variant, _variant
from ..expr import (
    APPLY,
    BinOp,
    Const,
    EvalError,
    ExprNode,
    ExprSyntaxError,
    Var,
    eval_ast,
    parse_infix,
    print_infix,
    variables,
)
from ..generators import gen_env, gen_expr_ast

__all__ = [
    "Instr",
    "compile_expr",
    "decompile",
    "run_vm",
    "bytecode_to_text",
    "bytecode_from_text",
    "vm_suite",
    "ENVS_PER_TRIAL",
]

_BINARY_OPS = {"ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/"}
_OP_MNEMONIC = {op: mnemonic for mnemonic, op in _BINARY_OPS.items()}

ENVS_PER_TRIAL = 8


@dataclass(frozen=True, slots=True)
class Instr:
    """One stack-machine instruction: PUSH k, LOAD v, ADD, SUB, MUL, DIV."""

    op: str
    arg: int | str | None = None


def compile_expr(node: ExprNode) -> list[Instr]:
    """Post-order code emission: left, right, operator."""
    if isinstance(node, Const):
        return [Instr("PUSH", node.value)]
    if isinstance(node, Var):
        return [Instr("LOAD", node.name)]
    return (
        compile_expr(node.left)
        + compile_expr(node.right)
        + [Instr(_OP_MNEMONIC[node.op])]
    )


def _run_stack(code: list[Instr], const, load, node):
    """Run bytecode on a stack: PUSH k pushes ``const(k)``, LOAD v pushes
    ``load(v)``, and a binary instruction pops two values and pushes
    ``node(op, left, right)`` with ``op`` an expression-language symbol."""
    stack = []
    for instr in code:
        if instr.op == "PUSH":
            stack.append(const(int(instr.arg)))
        elif instr.op == "LOAD":
            stack.append(load(instr.arg))
        elif instr.op in _BINARY_OPS:
            if len(stack) < 2:
                raise EvalError("stack_underflow", f"stack underflow at {instr.op}")
            right = stack.pop()
            left = stack.pop()
            stack.append(node(_BINARY_OPS[instr.op], left, right))
        else:
            raise ValueError(f"unknown instruction {instr.op!r}")
    if len(stack) != 1:
        raise EvalError("stack_underflow", f"final stack height {len(stack)}")
    return stack[0]


def run_vm(code: list[Instr], env: dict[str, int]) -> int:
    """Execute bytecode against an operand stack.

    Raises EvalError with kind div_by_zero, unbound_variable or
    stack_underflow; an underflow indicates malformed code, not a wrong
    answer.
    """

    def load(name):
        try:
            return env[name]
        except KeyError:
            raise EvalError("unbound_variable", f"unbound variable {name!r}") from None

    return _run_stack(code, int, load, lambda op, left, right: APPLY[op](left, right))


def decompile(code: list[Instr], variant: str = "correct") -> str:
    """Rebuild source text by symbolic stack execution.

    The "swap_sub" variant reverses the operands of SUB and DIV nodes.
    """
    swapped = _variant({"correct": False, "swap_sub": True}, variant)

    def node(op: str, left: ExprNode, right: ExprNode) -> BinOp:
        if swapped and op in ("-", "/"):
            left, right = right, left
        return BinOp(op, left, right)

    return print_infix(_run_stack(code, Const, lambda name: Var(str(name)), node))


def bytecode_to_text(code: list[Instr]) -> str:
    """One instruction per line; integer operands in decimal."""
    lines = []
    for instr in code:
        if instr.arg is None:
            lines.append(instr.op)
        else:
            lines.append(f"{instr.op} {instr.arg}")
    return "\n".join(lines) + "\n"


def bytecode_from_text(text: str) -> list[Instr]:
    code: list[Instr] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        instr = None
        if parts[0] == "PUSH" and len(parts) == 2:
            with contextlib.suppress(ValueError):
                instr = Instr("PUSH", int(parts[1]))
        elif parts[0] == "LOAD" and len(parts) == 2:
            instr = Instr("LOAD", parts[1])
        elif parts[0] in _BINARY_OPS and len(parts) == 1:
            instr = Instr(parts[0])
        if instr is None:
            raise ValueError(f"bad bytecode line {lineno}: {raw!r}")
        code.append(instr)
    return code


def _observe(node: ExprNode, env: dict[str, int]) -> tuple[str, object]:
    try:
        return ("value", eval_ast(node, env))
    except EvalError as exc:
        return ("error", exc.kind)


def vm_suite() -> SuiteDefinition:
    """Backward-mode suite: compile (trusted) then decompile (under test).

    The relation samples eight environments per trial and compares the
    observed behavior of the original and decompiled sources; decompiled
    text identical to the original passes without sampling.  Decompiler
    output that is not a string or fails to parse (nested too deep included)
    is a violation, since unparsable source is observable misbehavior.
    """

    def generate(ctx: TrialContext) -> str:
        return print_infix(gen_expr_ast(ctx.rng, max_depth=4))

    def forward(src: str, ctx: TrialContext) -> list[Instr]:
        return compile_expr(parse_infix(src))

    def backward_correct(code: list[Instr], ctx: TrialContext) -> str:
        return decompile(code, "correct")

    def backward_buggy(code: list[Instr], ctx: TrialContext) -> str:
        return decompile(code, "swap_sub")

    def relation(src, src_prime, mutation, ctx) -> bool:
        if not isinstance(src_prime, str):
            return False
        # The same text is the same tree, so it agrees under every
        # environment.  A str subclass may override __eq__, so only an exact
        # str skips the sampling.
        if type(src_prime) is str and src_prime == src:
            return True
        original = parse_infix(src)
        try:
            returned = parse_infix(src_prime)
        except (ExprSyntaxError, RecursionError):
            return False
        names = sorted(variables(original) | variables(returned))
        for _ in range(ENVS_PER_TRIAL):
            env = gen_env(ctx.rng, names)
            if _observe(original, env) != _observe(returned, env):
                return False
        return True

    return SuiteDefinition(
        name="vm",
        mode=Mode.BACKWARD,
        generator=generate,
        forward=forward,
        backward=backward_correct,
        relation=relation,
        variants={
            "correct": Variant(),
            "swap_sub": Variant(backward=backward_buggy),
        },
    )
