"""Seeded input generators.

All generators draw from an explicit :class:`Rng` instance, never from
global state, so any value they produce can be reproduced from a single
64-bit seed.  The stream is a SplitMix64 sequence, which is stable across
platforms and interpreter versions (unlike the stdlib Mersenne helpers,
whose integer-drawing internals are an implementation detail).
"""

from __future__ import annotations

import string
from typing import Iterable, Sequence

from .expr import _LEAVES, OPERATORS, VARIABLES, BinOp, ExprNode

__all__ = [
    "Rng",
    "gen_real_sequence",
    "gen_postfix",
    "gen_expr_ast",
    "gen_env",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

POSTFIX_OPERANDS = string.ascii_lowercase + string.digits


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
    Mixes a Python int, or returns a new numpy uint64 array, whose arithmetic
    wraps modulo 2**64 as the masks do (numpy scalars would warn instead)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic 64-bit random stream (SplitMix64).

    Same seed, same stream; advancing is explicit through the drawing
    methods.  Instances are cheap and are created per trial.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends inclusive."""
        if lo > hi:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]


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
            return _LEAVES[rng.choice(string.digits)]
        return _LEAVES[rng.choice(VARIABLES)]
    op = rng.choice(OPERATORS)
    return BinOp(op, gen_expr_ast(rng, max_depth - 1), gen_expr_ast(rng, max_depth - 1))


def gen_env(rng: Rng, names: Iterable[str]) -> dict[str, int]:
    """Variable bindings in [-9, 9] covering exactly the given names."""
    return {name: rng.randint(-9, 9) for name in sorted(names)}
