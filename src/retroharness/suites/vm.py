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

from dataclasses import dataclass

from ..core import Mode, SuiteDefinition, TrialContext, Variant, _variant, builtin_value
from ..expr import (
    _LEAVES,
    APPLY,
    BinOp,
    Const,
    EvalError,
    ExprNode,
    ExprSyntaxError,
    VARIABLES,
    Var,
    eval_ast,
    parse_infix,
    print_infix,
)
from ..generators import gen_env, gen_expr_ast

__all__ = [
    "Instr",
    "compile_expr",
    "decompile",
    "run_vm",
    "vm_suite",
    "ENVS_PER_TRIAL",
]

_BINARY_OPS = {"ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/"}

ENVS_PER_TRIAL = 8


@dataclass(frozen=True, slots=True)
class Instr:
    """One stack-machine instruction: PUSH k, LOAD v, ADD, SUB, MUL, DIV."""

    op: str
    arg: int | str | None = None


# The shared leaves by operand, and one shared instruction per leaf and per
# operator.  Leaf lookups go by exact type: True == 1, but PUSH True must
# stay PUSH True, so any other operand gets a fresh node or instruction.
_CONST_LEAVES = {leaf.value: leaf for leaf in _LEAVES.values() if type(leaf) is Const}
_VAR_LEAVES = {leaf.name: leaf for leaf in _LEAVES.values() if type(leaf) is Var}
_PUSH = {value: Instr("PUSH", value) for value in _CONST_LEAVES}
_LOAD = {name: Instr("LOAD", name) for name in _VAR_LEAVES}
_OPERATOR_CODE = {op: Instr(mnemonic) for mnemonic, op in _BINARY_OPS.items()}


def compile_expr(node: ExprNode) -> list[Instr]:
    """Post-order code emission: left, right, operator.  Each call returns a
    fresh list; its digit, variable and operator instructions are shared."""
    code: list[Instr] = []
    emit = code.append

    def walk(node: ExprNode) -> None:
        if isinstance(node, Const):
            value = node.value
            instr = _PUSH.get(value) if type(value) is int else None
            emit(Instr("PUSH", value) if instr is None else instr)
        elif isinstance(node, Var):
            name = node.name
            instr = _LOAD.get(name) if type(name) is str else None
            emit(Instr("LOAD", name) if instr is None else instr)
        else:
            walk(node.left)
            walk(node.right)
            emit(_OPERATOR_CODE[node.op])

    walk(node)
    return code


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


def _const_leaf(value: int) -> Const:
    # _run_stack hands over int(arg), always an exact int.
    leaf = _CONST_LEAVES.get(value)
    return Const(value) if leaf is None else leaf


def _var_leaf(name) -> Var:
    leaf = _VAR_LEAVES.get(name) if type(name) is str else None
    return Var(str(name)) if leaf is None else leaf


def decompile(code: list[Instr], variant: str = "correct") -> str:
    """Rebuild source text by symbolic stack execution.

    The "swap_sub" variant reverses the operands of SUB and DIV nodes.
    """
    swapped = _variant({"correct": False, "swap_sub": True}, variant)

    def node(op: str, left: ExprNode, right: ExprNode) -> BinOp:
        if swapped and op in ("-", "/"):
            left, right = right, left
        return BinOp(op, left, right)

    return print_infix(_run_stack(code, _const_leaf, _var_leaf, node))


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

    # The text forward parsed last and its tree: the relation of the same
    # trial reads the original's tree from here instead of parsing it again.
    parsed = (None, None)

    def generate(ctx: TrialContext) -> str:
        return print_infix(gen_expr_ast(ctx.rng, max_depth=4))

    def forward(src: str, ctx: TrialContext) -> list[Instr]:
        nonlocal parsed
        tree = parse_infix(src)
        parsed = (src, tree)
        return compile_expr(tree)

    def backward_correct(code: list[Instr], ctx: TrialContext) -> str:
        return decompile(code, "correct")

    def backward_buggy(code: list[Instr], ctx: TrialContext) -> str:
        return decompile(code, "swap_sub")

    def relation(src, src_prime, mutation, ctx) -> bool:
        src_prime = builtin_value(src_prime, (str,))
        if src_prime is None:
            return False
        # The same text is the same tree, so it agrees under every environment.
        if src_prime == src:
            return True
        text, original = parsed
        if text is not src:
            original = parse_infix(src)
        try:
            returned = parse_infix(src_prime)
        except (ExprSyntaxError, RecursionError):
            return False
        # Both texts parsed, so their letters are exactly their variables.
        names = set(src + src_prime).intersection(VARIABLES)
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
