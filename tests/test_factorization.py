import dataclasses
import math
import random

import pytest

from retroharness.core import (
    Outcome,
    Stage,
    StepCapExceeded,
    SuiteConfig,
    replay_trial,
    run_suite,
)
from retroharness.generators import Rng
from retroharness.suites.factorization import (
    factorization_suite,
    gcd,
    is_prime,
    multiply_product,
    pollards_rho,
)

# Seed whose trial stream draws n=12 and then steers the buggy walk to the
# classic wrong answer [2, 2, 2]; found by inverting the generator stream.
PINNED_BUGGY_SEED = 1491780421826728406

# Seed whose correct-variant walk on the cofactor 9 failed to split it 21
# times in a row, which once made pollards_rho give up and return 9.
PINNED_NINE_SEED = 16598743049546701451


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def reference_pollards_rho(n: int, variant: str, rng: Rng, step_cap: int) -> list[int]:
    """The rho loop as it was before it called math.gcd: a budget check
    before every turn and a Euclid gcd that refuses (0, 0).  Kept here as
    the reference the shipped loop must match draw for draw."""

    def euclid_gcd(a: int, b: int) -> int:
        if a == 0 and b == 0:
            raise ValueError("gcd(0, 0) is undefined")
        while b:
            a, b = b, a % b
        return a

    budget = step_cap
    buggy = variant == "gcd_x"

    def try_split(m: int) -> int:
        nonlocal budget
        x = rng.randint(1, m - 1)
        y = x
        c = rng.randint(1, m - 1)
        d = 1
        remaining = budget
        try:
            while d <= 1:
                if remaining < 3:
                    remaining -= 3
                    raise StepCapExceeded("polynomial-iteration budget exhausted")
                remaining -= 3
                x = (x * x + c) % m
                t = (y * y + c) % m
                y = (t * t + c) % m
                d = euclid_gcd(abs(x - y), x if buggy else m)
        finally:
            budget = remaining
        return d

    def factor(m: int) -> list[int]:
        if m == 1:
            return []
        if m % 2 == 0:
            return [2] + factor(m // 2)
        if not buggy and is_prime(m):
            return [m]
        d = try_split(m)
        while d == m and not buggy:
            d = try_split(m)
        if d == m:
            return [m]
        return factor(d) + factor(m // d)

    return factor(n)


def outcome_and_next_draw(rho, n, variant, seed, step_cap):
    """What a rho run returns or raises, plus the next draw of its Rng, so
    two runs that consumed the stream differently do not compare equal."""
    rng = Rng(seed)
    try:
        outcome = ("returned", rho(n, variant, rng, step_cap))
    except (StepCapExceeded, ValueError) as exc:
        outcome = ("raised", type(exc), str(exc))
    return outcome, rng.next_u64()


RHO_CAPS = (1, 2, 3, 4, 5, 6, 10, 100, 10**4)


class TestGcd:
    def test_textbook(self):
        assert gcd(12, 8) == 4

    def test_coprime(self):
        assert gcd(7, 1) == 1

    def test_zero_identity(self):
        assert gcd(0, 5) == 5

    def test_double_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^gcd\(0, 0\) is undefined$"):
            gcd(0, 0)

    def test_negative_argument_gives_non_negative_result(self):
        assert gcd(4, -6) == 2
        assert gcd(-4, 0) == 4


class TestIsPrime:
    def test_two(self):
        assert is_prime(2)

    def test_carmichael_561(self):
        assert not is_prime(561)
        assert not trial_division_is_prime(561)

    def test_large_value_against_trial_division(self):
        n = 10**12 + 39
        assert is_prime(n) == trial_division_is_prime(n)

    def test_agrees_with_sieve_below_100k(self):
        limit = 100_000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        for n in range(2, limit + 1):
            assert is_prime(n) == bool(sieve[n]), n


# The parent rule: Miller-Rabin to all twelve prime witnesses for every n.
TWELVE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# OEIS A014233 for k = 1..11: the least odd composite that is a strong
# probable prime to each of the first k prime bases.
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051,
)


def strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin of an odd n > 37 to each of ``bases``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def twelve_base_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in TWELVE_WITNESSES:
        if n % p == 0:
            return n == p
    return strong_probable_prime(n, TWELVE_WITNESSES)


class TestWitnessCount:
    """``is_prime`` tries only the witnesses n needs; its answers must be
    the twelve-witness test's."""

    @pytest.mark.parametrize("k, bound", enumerate(A014233, start=1))
    def test_boundary_composite(self, k, bound):
        # The bound fools the first k witnesses, so n = bound needs k + 1.
        assert strong_probable_prime(bound, TWELVE_WITNESSES[:k])
        assert not is_prime(bound)
        for n in range(bound - 2, bound + 3):
            assert is_prime(n) == twelve_base_is_prime(n), n

    def test_agrees_below_200k(self):
        for n in range(-2, 200_000):
            assert is_prime(n) == twelve_base_is_prime(n), n

    def test_agrees_on_random_64_bit_values(self):
        # Bit lengths 1..64 drawn evenly, so every witness count is used.
        rng = random.Random(20261018)
        values = [rng.getrandbits(rng.randint(1, 64)) for _ in range(100_000)]
        assert sum(map(is_prime, values)) > 1000
        for n in values:
            assert is_prime(n) == twelve_base_is_prime(n), n


class TestPollardsRho:
    def test_twelve_factors_correctly(self):
        factors = pollards_rho(12, "correct", Rng(0))
        assert sorted(factors) == [2, 2, 3]

    def test_one_gives_empty_list(self):
        assert pollards_rho(1, "correct", Rng(0)) == []

    def test_pinned_seed_reproduces_wrong_factors(self):
        rng = Rng(PINNED_BUGGY_SEED)
        n = rng.randint(2, 10**12)
        assert n == 12
        factors = pollards_rho(12, "gcd_x", rng)
        assert sorted(factors) == [2, 2, 2]

    def test_step_cap_exceeded_raises(self):
        # A two-evaluation budget cannot pay for the first three-step loop
        # turn on any odd input, whatever the seed draws.
        with pytest.raises(StepCapExceeded):
            pollards_rho(10**12 - 11, "gcd_x", Rng(0), step_cap=2)

    def test_correct_variant_returns_prime_factors(self):
        rng = Rng(5)
        for _ in range(50):
            n = rng.randint(2, 10**12)
            factors = pollards_rho(n, "correct", rng)
            assert multiply_product(factors) == n
            assert all(is_prime(f) for f in factors)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pollards_rho(0, "correct", Rng(0))
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            pollards_rho(10, "nope", Rng(0))


class TestRhoLoopAgainstReference:
    """The counted math.gcd loop splits, crashes and caps on the same turn
    as the reference loop, so every record byte stays the same."""

    @pytest.mark.parametrize(
        "variant, kinds",
        [
            ("correct", {"returned", StepCapExceeded}),
            ("gcd_x", {"returned", StepCapExceeded, ValueError}),
        ],
        ids=["correct", "gcd_x"],
    )
    def test_odd_composites_up_to_10_000(self, variant, kinds):
        # kinds: the outcomes the compared runs must include, so a split,
        # a cap and (for gcd_x) a gcd(0, 0) crash are each compared.
        seen = set()
        odd_composites = [n for n in range(9, 10_001, 2) if not is_prime(n)]
        for i, n in enumerate(odd_composites):
            seed = i % 7
            for cap in RHO_CAPS:
                expected = outcome_and_next_draw(reference_pollards_rho, n, variant, seed, cap)
                actual = outcome_and_next_draw(pollards_rho, n, variant, seed, cap)
                assert actual == expected, (n, variant, seed, cap)
                outcome = expected[0]
                seen.add(outcome[0] if outcome[0] == "returned" else outcome[1])
        assert seen == kinds

    @pytest.mark.parametrize("variant", ["correct", "gcd_x"])
    def test_random_inputs_up_to_10_to_the_12(self, variant):
        draw = Rng(2024)
        for seed in range(40):
            n = draw.randint(2, 10**12)
            for cap in RHO_CAPS:
                expected = outcome_and_next_draw(reference_pollards_rho, n, variant, seed, cap)
                actual = outcome_and_next_draw(pollards_rho, n, variant, seed, cap)
                assert actual == expected, (n, variant, seed, cap)

    @pytest.mark.parametrize("seed", range(4))
    def test_cap_of_exactly_the_turns_taken_splits(self, seed):
        # 10403 = 101 * 103: one walk that splits, then two primes that
        # cost nothing, so the budget pays for that walk's turns alone.
        n = 10403
        rng = Rng(seed)
        x = rng.randint(1, n - 1)
        y = x
        c = rng.randint(1, n - 1)
        turns, d = 0, 1
        while d == 1:
            turns += 1
            x = (x * x + c) % n
            t = (y * y + c) % n
            y = (t * t + c) % n
            d = math.gcd(x - y, n)
        assert d in (101, 103)
        assert sorted(pollards_rho(n, "correct", Rng(seed), 3 * turns)) == [101, 103]
        with pytest.raises(StepCapExceeded, match="polynomial-iteration budget exhausted"):
            pollards_rho(n, "correct", Rng(seed), 3 * turns - 1)


class TestMultiplyProduct:
    def test_basic(self):
        assert multiply_product([2, 2, 3]) == 12

    def test_empty(self):
        assert multiply_product([]) == 1

    def test_wrong_factors_of_twelve(self):
        assert multiply_product([2, 2, 2]) == 8


class TestFactorizationSuite:
    def test_twelve_passes(self, force_input):
        report = force_input(factorization_suite(), 12)
        assert report.verdict.outcome is Outcome.PASS
        assert sorted(report.m2) == [2, 2, 3]
        assert report.m1_prime == 12

    def test_prime_input_passes(self, force_input):
        report = force_input(factorization_suite(), 2)
        assert report.verdict.outcome is Outcome.PASS
        assert report.m2 == [2]

    def test_pinned_replay_violates(self):
        suite = factorization_suite()
        config = SuiteConfig(variant_id="gcd_x")
        report = replay_trial(suite, config, PINNED_BUGGY_SEED)
        assert report.m1 == 12
        assert sorted(report.m2) == [2, 2, 2]
        assert report.m1_prime == 8
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_pinned_replay_is_stable(self):
        suite = factorization_suite()
        config = SuiteConfig(variant_id="gcd_x")
        first = replay_trial(suite, config, PINNED_BUGGY_SEED)
        second = replay_trial(suite, config, PINNED_BUGGY_SEED)
        assert first == second

    def test_correct_variant_on_same_seed_passes(self):
        suite = factorization_suite()
        report = replay_trial(suite, SuiteConfig(), PINNED_BUGGY_SEED)
        assert report.m1 == 12
        assert report.verdict.outcome is Outcome.PASS

    def test_step_cap_exhaustion_is_forward_error(self, force_input):
        report = force_input(
            factorization_suite(), 10**12 - 11, variant="gcd_x", seed=1, step_cap=2
        )
        assert report.verdict.outcome is Outcome.PROGRAM_ERROR
        assert report.verdict.stage is Stage.FORWARD_EXEC

    def test_strict_profile_rejects_composite_factor(self):
        suite = factorization_suite(strict=True)

        # Exercise the strict relation directly with a composite leaf.
        class Ctx:
            m2_mutated = [4, 3]

        assert not suite.relation(12, 12, None, Ctx())

        class CtxGood:
            m2_mutated = [2, 2, 3]

        assert suite.relation(12, 12, None, CtxGood())

    @pytest.mark.parametrize(
        "n, factors",
        [(6, [2.0, 3.0]), (1000003, [1000003.0])],
        ids=["float_factors_of_6", "float_prime_1000003"],
    )
    def test_strict_profile_rejects_float_factors(self, force_input, n, factors):
        suite = dataclasses.replace(
            factorization_suite(strict=True), forward=lambda value, ctx: list(factors)
        )
        report = force_input(suite, n)
        assert report.m1_prime == n
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_plain_profile_rejects_float_factors(self, force_input):
        # 2.0 * 3.0 == 6, so only the factor type tells this from [2, 3].
        suite = dataclasses.replace(factorization_suite(), forward=lambda value, ctx: [2.0, 3.0])
        report = force_input(suite, 6)
        assert report.m1_prime == 6
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_strict_correct_clean_over_300(self):
        summary, _ = run_suite(
            factorization_suite(strict=True), SuiteConfig(iterations=300)
        )
        assert summary.violations == 0
        assert summary.program_errors == 0

    def test_strict_correct_retries_until_nine_splits(self):
        suite = factorization_suite(strict=True)
        report = replay_trial(suite, SuiteConfig(), PINNED_NINE_SEED)
        assert report.m1 == 272058401646
        assert report.m2 == [2, 3, 3, 3, 5038118549]
        assert report.verdict.outcome is Outcome.PASS
