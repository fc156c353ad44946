import dataclasses

import pytest

from retroharness.core import Outcome, SuiteConfig, run_suite
from retroharness.generators import Rng, gen_postfix
from retroharness.suites.notation import (
    notation_suite,
    postfix_to_prefix,
    prefix_to_postfix,
    validate_postfix,
    validate_prefix,
)

# Independent oracle: parse a postfix string into a tree, mirror it (swap
# the children of every operator node), and render it back to postfix.


def postfix_to_tree(s):
    stack = []
    for ch in s:
        if ch.isalnum():
            stack.append(ch)
        else:
            right = stack.pop()
            left = stack.pop()
            stack.append((ch, left, right))
    return stack[0]


def mirror(tree):
    if isinstance(tree, str):
        return tree
    op, left, right = tree
    return (op, mirror(right), mirror(left))


def tree_to_postfix(tree):
    if isinstance(tree, str):
        return tree
    op, left, right = tree
    return tree_to_postfix(left) + tree_to_postfix(right) + op


class TestValidate:
    def test_known_valid(self):
        assert validate_postfix("56a*+")

    def test_underflow(self):
        assert not validate_postfix("5+")

    def test_single_operand(self):
        assert validate_postfix("a")

    def test_leftovers_and_bad_chars(self):
        assert not validate_postfix("ab")
        assert not validate_postfix("")
        assert not validate_postfix("a b+")

    def test_prefix_counterparts(self):
        assert validate_prefix("+5*6a")
        assert validate_prefix("a")
        assert not validate_prefix("+5")
        assert not validate_prefix("56a*+")


class TestPostfixToPrefix:
    def test_correct_conversion(self):
        assert postfix_to_prefix("56a*+", "correct") == "+5*6a"

    def test_swapped_conversion(self):
        assert postfix_to_prefix("56a*+", "operand_swap") == "+*a65"

    def test_single_operand_any_variant(self):
        assert postfix_to_prefix("a", "correct") == "a"
        assert postfix_to_prefix("a", "operand_swap") == "a"

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            postfix_to_prefix("5+", "correct")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'mirror'"):
            postfix_to_prefix("ab+", "mirror")

    @pytest.mark.parametrize("convert, s, message", [
        (postfix_to_prefix, "5+", "not a valid postfix expression: '5+'"),
        (postfix_to_prefix, "ab", "not a valid postfix expression: 'ab'"),
        (postfix_to_prefix, "a b+", "not a valid postfix expression: 'a b+'"),
        (prefix_to_postfix, "++ab", "not a valid prefix expression: '++ab'"),
        (prefix_to_postfix, "", "not a valid prefix expression: ''"),
    ], ids=["postfix_underflow", "postfix_leftover", "postfix_bad_char",
            "prefix_underflow", "prefix_empty"])
    def test_invalid_input_message(self, convert, s, message):
        with pytest.raises(ValueError) as err:
            convert(s)
        assert str(err.value) == message

    def test_output_is_valid_prefix_for_both_variants(self):
        rng = Rng(17)
        for _ in range(1000):
            s = gen_postfix(rng, 6)
            assert validate_prefix(postfix_to_prefix(s, "correct"))
            assert validate_prefix(postfix_to_prefix(s, "operand_swap"))


class TestPrefixToPostfix:
    def test_inverts_correct_prefix(self):
        assert prefix_to_postfix("+5*6a") == "56a*+"

    def test_converts_swapped_prefix(self):
        assert prefix_to_postfix("+*a65") == "a6*5+"

    def test_single_operand(self):
        assert prefix_to_postfix("a") == "a"

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            prefix_to_postfix("++ab")


class TestNotationSuite:
    def test_correct_round_trip_passes(self, force_input):
        report = force_input(notation_suite(), "56a*+")
        assert report.verdict.outcome is Outcome.PASS
        assert report.m1_prime == "56a*+"

    def test_buggy_round_trip_violates(self, force_input):
        report = force_input(notation_suite(), "56a*+", variant="operand_swap")
        assert report.verdict.outcome is Outcome.VIOLATION
        assert report.m2 == "+*a65"
        assert report.m1_prime == "a6*5+"

    def test_bug_invisible_on_single_operand(self, force_input):
        report = force_input(notation_suite(), "a", variant="operand_swap")
        assert report.verdict.outcome is Outcome.PASS

    def test_str_subclass_equal_to_everything_is_judged_by_its_value(self, force_input):
        class EqualToAll(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                return True

        suite = dataclasses.replace(notation_suite(), backward=lambda s, ctx: EqualToAll("zzz"))
        report = force_input(suite, "56a*+")
        assert report.verdict.outcome is Outcome.VIOLATION

    @pytest.mark.parametrize("returned", [None, ["56a*+"]], ids=["none", "list"])
    def test_non_string_result_is_violation(self, force_input, returned):
        suite = dataclasses.replace(notation_suite(), backward=lambda s, ctx: returned)
        report = force_input(suite, "56a*+")
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_correct_round_trip_identity_2000(self):
        summary, _ = run_suite(notation_suite(), SuiteConfig(iterations=2000))
        assert summary.violations == 0 and summary.program_errors == 0

    def test_buggy_round_trip_is_mirror_rendering(self):
        rng = Rng(23)
        for _ in range(1000):
            s = gen_postfix(rng, 6)
            round_tripped = prefix_to_postfix(postfix_to_prefix(s, "operand_swap"))
            assert round_tripped == tree_to_postfix(mirror(postfix_to_tree(s)))

    def test_violation_iff_not_mirror_symmetric(self):
        suite = notation_suite()
        summary, reports = run_suite(
            suite, SuiteConfig(iterations=500, variant_id="operand_swap")
        )
        for report in reports:
            s = report.m1
            symmetric = tree_to_postfix(mirror(postfix_to_tree(s))) == s
            expected = Outcome.PASS if symmetric else Outcome.VIOLATION
            assert report.verdict.outcome is expected
