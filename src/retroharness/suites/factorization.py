"""Integer factorization suite (forward mode).

Pollard's rho plays the forward program under test; trusted integer
multiplication plays the backward program.  The relation checks that the
returned factors are integers that multiply back to the input, and the
strict profile additionally requires every factor to be prime.

The seeded bug ("gcd_x") computes the candidate divisor as
gcd(|x - y|, x) instead of gcd(|x - y|, n).  The extracted "divisor" then
need not divide n, so the recursion can split n incorrectly (12 famously
factors to [2, 2, 2]), stall at d = 1 until the step cap trips, or crash
in gcd; all three outcomes are observable verdicts.
"""

from __future__ import annotations

import bisect
import math

from ..core import (
    Mode,
    StepCapExceeded,
    SuiteConfig,
    SuiteDefinition,
    TrialContext,
    Variant,
    _is_real,
    _variant,
)
from ..generators import Rng, gen_integer

__all__ = [
    "gcd",
    "is_prime",
    "pollards_rho",
    "multiply_product",
    "factorization_suite",
]

# Witnesses making Miller-Rabin deterministic for all 64-bit integers.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# _MR_BOUNDS[k - 1] is the least odd composite that passes the strong
# test to each of the first k witnesses (OEIS A014233), so the first k
# witnesses decide every n below it.  All 12 decide every n below 2**64.
_MR_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
)

# Raised by gcd and by rho's inner loop, which calls math.gcd directly.
_GCD_ZERO = "gcd(0, 0) is undefined"


def gcd(a: int, b: int) -> int:
    """Greatest common divisor, ``math.gcd(a, b)``, refusing ``(0, 0)``.

    The result is never negative, whatever the signs of the arguments:
    ``gcd(4, -6)`` is 2.
    """
    if a == 0 and b == 0:
        raise ValueError(_GCD_ZERO)
    return math.gcd(a, b)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit integer.

    Only as many witnesses are tried as n needs: the first k when n is
    below the least odd composite that passes all k (OEIS A014233;
    Jaeschke, Math. Comp. 1993, and Jiang and Deng, Math. Comp. 2014), so
    five for any n below 2.1e12, and all twelve from 3.8e18 up.  No
    randomness is drawn.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect.bisect_right(_MR_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pollards_rho(
    n: int,
    variant: str,
    rng: Rng,
    step_cap: int = SuiteConfig.step_cap,
) -> list[int]:
    """Factor n with Pollard's rho; the total number of polynomial
    iterations across the whole recursion is bounded by step_cap.

    The correct variant strips twos, short-circuits on primes, and retries
    a failed split with fresh random parameters until it splits, so it only
    returns prime factors; the shared step budget bounds the retries.  The
    "gcd_x" variant reproduces the seeded bug with neither safeguard.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    buggy = _variant({"correct": False, "gcd_x": True}, variant)
    budget = step_cap

    def try_split(m: int) -> int:
        """One rho walk; returns a divisor d > 1 (possibly m itself).

        Each turn advances x once and y twice, three polynomial
        evaluations, so the shared budget pays for ``budget // 3`` turns;
        a split debits the turns it took.
        """
        nonlocal budget
        x = rng.randint(1, m - 1)
        y = x
        c = rng.randint(1, m - 1)
        for turn in range(1, budget // 3 + 1):
            x = (x * x + c) % m
            t = (y * y + c) % m
            y = (t * t + c) % m
            d = math.gcd(x - y, x if buggy else m)
            if d != 1:
                if d == 0:
                    raise ValueError(_GCD_ZERO)
                budget -= 3 * turn
                return d
        raise StepCapExceeded("polynomial-iteration budget exhausted")

    def factor(m: int) -> list[int]:
        if m == 1:
            return []
        if m % 2 == 0:
            return [2] + factor(m // 2)
        if not buggy and is_prime(m):
            return [m]
        d = try_split(m)
        # Retry a split into m and 1.  gcd_x never returns m: its
        # d = gcd(x - y, x) is at most max(x, y) < m.
        while d == m:
            d = try_split(m)
        return factor(d) + factor(m // d)

    return factor(n)


def multiply_product(factors) -> int:
    """Product of all factors; the empty list multiplies to 1."""
    return math.prod(factors)


def factorization_suite(strict: bool = False) -> SuiteDefinition:
    """Forward-mode suite over n in [2, 10^12].

    The plain relation checks that the returned factors are ``int``s whose
    product is n; the strict profile also requires every factor to pass
    the primality test.
    """

    def generate(ctx: TrialContext) -> int:
        return gen_integer(ctx.rng, 2, 10**12)

    def forward_correct(n: int, ctx: TrialContext) -> list[int]:
        return pollards_rho(n, "correct", ctx.rng, ctx.step_cap)

    def forward_buggy(n: int, ctx: TrialContext) -> list[int]:
        return pollards_rho(n, "gcd_x", ctx.rng, ctx.step_cap)

    def backward(factors, ctx: TrialContext) -> int | None:
        # Forward output that is not a list of numbers is the forward's
        # fault: return None, which the relation reports as a violation.
        if not isinstance(factors, (list, tuple)) or not all(map(_is_real, factors)):
            return None
        return multiply_product(factors)

    def relation(n, n_prime, mutation, ctx) -> bool:
        return n_prime == n and all(_is_real(f, int) for f in ctx.m2_mutated)

    def relation_strict(n, n_prime, mutation, ctx) -> bool:
        return relation(n, n_prime, mutation, ctx) and all(map(is_prime, ctx.m2_mutated))

    return SuiteDefinition(
        name="factorization_strict" if strict else "factorization",
        mode=Mode.FORWARD,
        generator=generate,
        forward=forward_correct,
        backward=backward,
        relation=relation_strict if strict else relation,
        variants={
            "correct": Variant(),
            "gcd_x": Variant(forward=forward_buggy),
        },
    )
