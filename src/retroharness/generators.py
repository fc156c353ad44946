"""Seeded input generators.

All generators draw from an explicit :class:`Rng` instance (defined in
``core`` and re-exported here), never from global state, so any value
they produce can be reproduced from a single 64-bit seed.  The stream is
a SplitMix64 sequence, which is stable across platforms and interpreter
versions (unlike the stdlib Mersenne helpers, whose integer-drawing
internals are an implementation detail).
"""

from __future__ import annotations

from typing import Iterable

from .core import _GAMMA, _MASK64, Rng, _mix64
from .expr import _LEAVES, OPERATORS, VARIABLES, BinOp, ExprNode

__all__ = [
    "Rng",
    "gen_real_sequence",
    "gen_postfix",
    "gen_expr_ast",
    "gen_env",
]

POSTFIX_OPERANDS = "abcdefghijklmnopqrstuvwxyz0123456789"


def gen_real_sequence(
    rng: Rng,
    min_len: int = 1,
    max_len: int = 16,
    lo: float = -1.0,
    hi: float = 1.0,
) -> list[float]:
    """Random-length list of uniform reals.

    Length is uniform in [min_len, max_len], each element uniform in
    [lo, hi).  The elements are the stream's next ``length`` draws of
    ``rng.uniform(lo, hi)``, bit for bit, computed in one numpy pass: draw
    i mixes ``state + i * gamma``.  numpy is imported at the first call.
    """
    if min_len < 1 or min_len > max_len:
        raise ValueError(f"invalid length range [{min_len}, {max_len}]")
    if not lo < hi:
        raise ValueError(f"invalid value range [{lo}, {hi})")
    length = rng.randint(min_len, max_len)
    import numpy as np

    # state + i * gamma for i = 1..length.
    z = np.arange(1, length + 1, dtype=np.uint64)
    z *= _GAMMA
    z += rng._state
    z = _mix64(z)
    rng._state = (rng._state + _GAMMA * length) & _MASK64
    return (lo + (hi - lo) * ((z >> 11) * 2.0**-53)).tolist()


def _postfix_tree(rng: Rng, n_ops: int) -> str:
    if n_ops == 0:
        return rng.choice(POSTFIX_OPERANDS)
    left_ops = rng.randint(0, n_ops - 1)
    left = _postfix_tree(rng, left_ops)
    right = _postfix_tree(rng, n_ops - 1 - left_ops)
    return left + right + rng.choice(OPERATORS)


def gen_postfix(rng: Rng, max_internal_nodes: int = 6) -> str:
    """Postfix rendering of a random binary expression tree.

    Tokens are single characters with no separators: operands from
    [a-z0-9], operators from ``+-*/``.  The operator count is uniform in
    [0, max_internal_nodes], so the degenerate single-operand string is
    producible.  Every output is stack-valid postfix.
    """
    if max_internal_nodes < 1:
        raise ValueError("max_internal_nodes must be >= 1")
    return _postfix_tree(rng, rng.randint(0, max_internal_nodes))


def gen_expr_ast(rng: Rng, max_depth: int = 4) -> ExprNode:
    """Random expression tree over constants 0-9, variables a-e, ``+-*/``.
    Its leaves are the parser's shared ``Const`` and ``Var`` nodes."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_depth == 1 or rng.random() < 0.25:
        # choice over ten digits draws as randint(0, 9) does.
        if rng.random() < 0.5:
            return _LEAVES[rng.choice("0123456789")]
        return _LEAVES[rng.choice(VARIABLES)]
    op = rng.choice(OPERATORS)
    return BinOp(op, gen_expr_ast(rng, max_depth - 1), gen_expr_ast(rng, max_depth - 1))


def gen_env(rng: Rng, names: Iterable[str]) -> dict[str, int]:
    """Variable bindings in [-9, 9] covering exactly the given names."""
    return {name: rng.randint(-9, 9) for name in sorted(names)}
