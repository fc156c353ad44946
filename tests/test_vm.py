import dataclasses
import gc
import hashlib
import itertools
import sys
import tracemalloc

import pytest

from retroharness.core import Outcome, SuiteConfig, TrialContext, Variant, run_suite
from retroharness.expr import (
    _LEAVES,
    VARIABLES,
    BinOp,
    Const,
    EvalError,
    ExprSyntaxError,
    Var,
    eval_ast,
    parse_infix,
    print_infix,
    variables,
)
from retroharness.generators import Rng, gen_env, gen_expr_ast
from retroharness.suites import vm
from retroharness.suites.vm import (
    Instr,
    compile_expr,
    decompile,
    run_vm,
    vm_suite,
)

# run_vm and decompile share one stack loop and its error checks.
BOTH_STACK_RUNNERS = pytest.mark.parametrize(
    "run", [lambda code: run_vm(code, {}), decompile], ids=["run_vm", "decompile"]
)


class TestParsePrint:
    def test_parenthesized_product(self):
        assert parse_infix("(1+2)*4") == BinOp("*", BinOp("+", Const(1), Const(2)), Const(4))

    def test_precedence(self):
        assert parse_infix("1+2*4") == BinOp("+", Const(1), BinOp("*", Const(2), Const(4)))

    def test_left_associativity(self):
        assert parse_infix("7-3-1") == BinOp("-", BinOp("-", Const(7), Const(3)), Const(1))

    @pytest.mark.parametrize(
        "src, message, position",
        [
            ("1+", "unexpected end of input", 2),
            ("(1", "expected ')'", 2),
            ("a b", "unexpected ' '", 1),
            (")", "unexpected ')'", 0),
            ("", "unexpected end of input", 0),
            ("1++2", "unexpected '+'", 2),
            ("²", "unexpected '²'", 0),
            ("١+2", "unexpected '١'", 0),
        ],
        ids=[
            "trailing_op",
            "unclosed_paren",
            "space",
            "stray_close",
            "empty",
            "double_op",
            "superscript_two",
            "arabic_indic_one",
        ],
    )
    def test_syntax_error_carries_position(self, src, message, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse_infix(src)
        assert str(err.value) == f"{message} at position {position}"
        assert err.value.position == position

    def test_whole_behaviour_on_short_strings_is_pinned(self):
        # Every string of up to five characters over this alphabet, parsed to
        # a tree repr or to an error's text and position.  A rewrite of the
        # parser must leave every tree and every error as it is.
        def behaviour(src):
            try:
                return repr(parse_infix(src))
            except ExprSyntaxError as exc:
                return f"error {exc} {exc.position}"

        lines = [
            behaviour("".join(chars))
            for length in range(6)
            for chars in itertools.product("1a+-*/() ", repeat=length)
        ]
        assert len(lines) == 66_430
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == "61cbc6a21f9d4534a76c15870791ca4a7476000c1a1e1a2ee97145c4e3003545"

    def test_print_known_trees(self):
        assert print_infix(BinOp("*", BinOp("+", Const(1), Const(2)), Const(4))) == "(1+2)*4"
        assert print_infix(Const(7)) == "7"
        assert print_infix(BinOp("-", Const(5), BinOp("-", Const(3), Const(1)))) == "5-(3-1)"

    def test_round_trip_structural_identity(self):
        rng = Rng(31)
        for _ in range(10_000):
            tree = gen_expr_ast(rng, 5)
            assert parse_infix(print_infix(tree)) == tree


class TestCompile:
    def test_product(self):
        assert compile_expr(parse_infix("3*4")) == [Instr("PUSH", 3), Instr("PUSH", 4), Instr("MUL")]

    def test_variable(self):
        assert compile_expr(Var("a")) == [Instr("LOAD", "a")]

    def test_post_order(self):
        assert compile_expr(parse_infix("(1+2)*4")) == [
            Instr("PUSH", 1),
            Instr("PUSH", 2),
            Instr("ADD"),
            Instr("PUSH", 4),
            Instr("MUL"),
        ]


def _leaves(tree):
    if isinstance(tree, BinOp):
        return _leaves(tree.left) + _leaves(tree.right)
    return [tree]


SHARED_LEAF_IDS = {id(leaf) for leaf in _LEAVES.values()}


class TestSharing:
    def test_equal_leaves_and_operators_are_one_instruction(self):
        trees = [
            parse_infix("(1+a)*(1-a)/e"),
            parse_infix("a*1+a-e/9"),
            BinOp("+", Const(1), Var("a")),
            gen_expr_ast(Rng(3), 5),
        ]
        seen = {}
        for tree in trees:
            for instr in compile_expr(tree):
                assert seen.setdefault(instr, instr) is instr

    def test_each_call_returns_a_new_list(self):
        tree = parse_infix("1+a")
        first, second = compile_expr(tree), compile_expr(tree)
        assert first is not second
        first.append(Instr("ADD"))
        assert second == [Instr("PUSH", 1), Instr("LOAD", "a"), Instr("ADD")]

    def test_generated_and_decompiled_leaves_are_the_shared_ones(self, monkeypatch):
        decompiled = []
        monkeypatch.setattr(vm, "print_infix", lambda tree: decompiled.append(tree) or "")
        rng = Rng(17)
        for _ in range(200):
            tree = gen_expr_ast(rng, 5)
            decompile(compile_expr(tree), "swap_sub")
            assert {id(leaf) for leaf in _leaves(tree)} <= SHARED_LEAF_IDS
        assert len(decompiled) == 200
        assert {id(leaf) for tree in decompiled for leaf in _leaves(tree)} <= SHARED_LEAF_IDS

    def test_a_bool_constant_keeps_its_own_instruction(self):
        (instr,) = compile_expr(Const(True))
        assert instr.arg is True
        assert compile_expr(Const(1))[0].arg is not True

    def test_a_constant_past_the_digits_gets_a_fresh_leaf(self):
        assert decompile([Instr("PUSH", 12)], "correct") == "12"
        assert compile_expr(Const(12)) == [Instr("PUSH", 12)]

    def test_run_suite_keeps_at_most_500_bytes_per_report(self):
        # 2,000 vm reports each hold their source and decompiled text and a
        # fresh list of shared instructions: about 440 bytes, where an
        # instruction object per opcode made it about 780.
        suite, config = vm_suite(), SuiteConfig(iterations=2000)
        run_suite(suite, dataclasses.replace(config, iterations=5, master_seed=1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, reports = run_suite(suite, config)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(reports) == 2000
        assert retained <= 500 * 2000


class TestRunVm:
    def test_addition(self):
        assert run_vm([Instr("PUSH", 8), Instr("PUSH", 4), Instr("ADD")], {}) == 12

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            run_vm([Instr("PUSH", 1), Instr("PUSH", 0), Instr("DIV")], {})
        assert err.value.kind == "div_by_zero"

    def test_compile_then_run(self):
        assert run_vm(compile_expr(parse_infix("(1+2)*4")), {}) == 12

    def test_unbound_variable(self):
        with pytest.raises(EvalError) as err:
            run_vm([Instr("LOAD", "a")], {})
        assert err.value.kind == "unbound_variable"

    def test_underflow_on_malformed_code(self):
        with pytest.raises(EvalError) as err:
            run_vm([Instr("ADD")], {})
        assert err.value.kind == "stack_underflow"

    @BOTH_STACK_RUNNERS
    def test_unknown_instruction_rejected(self, run):
        with pytest.raises(ValueError, match="unknown instruction 'NOP'"):
            run([Instr("PUSH", 1), Instr("NOP")])

    @BOTH_STACK_RUNNERS
    @pytest.mark.parametrize("code", [[], [Instr("PUSH", 1), Instr("PUSH", 2)]],
                             ids=["height_0", "height_2"])
    def test_final_height_other_than_one_is_underflow(self, run, code):
        with pytest.raises(EvalError, match=f"final stack height {len(code)}") as err:
            run(code)
        assert err.value.kind == "stack_underflow"

    def test_truncated_division(self):
        assert run_vm([Instr("PUSH", 7), Instr("PUSH", 2), Instr("DIV")], {}) == 3
        code = compile_expr(BinOp("/", BinOp("-", Const(0), Const(7)), Const(2)))
        assert run_vm(code, {}) == -3  # rounds toward zero, not floor


class TestEvalAst:
    def test_value(self):
        assert eval_ast(parse_infix("(1+2)*4"), {}) == 12

    def test_variables(self):
        assert eval_ast(parse_infix("a-b"), {"a": 3, "b": 5}) == -2

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            eval_ast(parse_infix("7/(2-2)"), {})
        assert err.value.kind == "div_by_zero"

    def test_unbound_variable(self):
        with pytest.raises(EvalError) as err:
            eval_ast(Var("a"), {})
        assert err.value.kind == "unbound_variable"


class TestDecompile:
    def test_round_trips_compiled_code(self):
        code = [Instr("PUSH", 1), Instr("PUSH", 2), Instr("ADD"), Instr("PUSH", 4), Instr("MUL")]
        assert decompile(code, "correct") == "(1+2)*4"

    def test_swap_sub_reverses_subtraction(self):
        assert decompile([Instr("PUSH", 5), Instr("PUSH", 3), Instr("SUB")], "swap_sub") == "3-5"

    def test_single_load(self):
        assert decompile([Instr("LOAD", "a")], "correct") == "a"
        assert decompile([Instr("LOAD", "a")], "swap_sub") == "a"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            decompile([Instr("PUSH", 1)], "nope")

    def test_structural_round_trip(self):
        rng = Rng(13)
        for _ in range(10_000):
            tree = gen_expr_ast(rng, 5)
            assert parse_infix(decompile(compile_expr(tree), "correct")) == tree


class TestVmCoherence:
    def test_vm_matches_reference_evaluator(self):
        rng = Rng(99)
        for _ in range(2000):
            tree = gen_expr_ast(rng, 5)
            env = gen_env(rng, sorted({v for v in "abcde"}))
            code = compile_expr(tree)
            try:
                expected = ("value", eval_ast(tree, env))
            except EvalError as exc:
                expected = ("error", exc.kind)
            try:
                actual = ("value", run_vm(code, env))
            except EvalError as exc:
                actual = ("error", exc.kind)
            assert actual == expected


class TestVmSuite:
    def test_correct_decompiler_passes(self, force_input):
        report = force_input(vm_suite(), "(1+2)*4")
        assert report.verdict.outcome is Outcome.PASS
        assert report.m1_prime == "(1+2)*4"

    def test_swap_sub_violates_on_subtraction(self, force_input):
        report = force_input(vm_suite(), "5-3", variant="swap_sub")
        assert report.verdict.outcome is Outcome.VIOLATION
        assert report.m1_prime == "3-5"

    def test_swap_sub_invisible_on_commutative_program(self, force_input):
        report = force_input(vm_suite(), "a+b", variant="swap_sub")
        assert report.verdict.outcome is Outcome.PASS

    def test_matching_division_by_zero_counts_as_agreement(self, force_input):
        # 0/0 reverses to 0/0 under the swap, so both sides fail alike.
        report = force_input(vm_suite(), "0/0", variant="swap_sub")
        assert report.verdict.outcome is Outcome.PASS

    @pytest.mark.parametrize("returned", [None, 42], ids=["none", "int"])
    def test_non_string_source_is_violation(self, force_input, returned):
        suite = dataclasses.replace(vm_suite(), backward=lambda code, ctx: returned)
        report = force_input(suite, "(1+2)*4")
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_unparsable_source_is_violation(self, force_input):
        suite = dataclasses.replace(vm_suite(), backward=lambda code, ctx: "1+")
        report = force_input(suite, "(1+2)*4")
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_source_nested_past_the_recursion_limit_is_violation(self, force_input):
        depth = sys.getrecursionlimit()
        deep = "(" * depth + "a" + ")" * depth
        suite = dataclasses.replace(vm_suite(), backward=lambda code, ctx: deep)
        report = force_input(suite, "(1+2)*4")
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_non_ascii_digit_source_is_violation(self, force_input):
        suite = dataclasses.replace(vm_suite(), backward=lambda code, ctx: "²")
        report = force_input(suite, "(1+2)*4")
        assert report.verdict.outcome is Outcome.VIOLATION

    @pytest.mark.parametrize("variant", ["correct", "swap_sub"])
    def test_identical_source_skips_sampling_without_changing_a_verdict(self, variant):
        # "(" + src + ")" parses to the same tree but is not the same text,
        # so it takes the sampled path every time.
        suite = vm_suite()
        backward = suite.variants[variant].backward or suite.backward
        respelled = dataclasses.replace(suite, variants={
            **suite.variants,
            variant: Variant(backward=lambda code, ctx: "(" + backward(code, ctx) + ")"),
        })
        config = SuiteConfig(iterations=2000, master_seed=5, variant_id=variant)
        fast, reports = run_suite(suite, config)
        _, sampled = run_suite(respelled, config)
        assert [r.verdict.outcome for r in reports] == [r.verdict.outcome for r in sampled]
        assert fast.passes > 0 and fast.program_errors == 0
        assert (fast.violations > 0) == (variant == "swap_sub")

    def test_str_subclass_equal_to_everything_is_still_sampled(self):
        class EqualToAll(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                return True

        suite = vm_suite()
        flattering = dataclasses.replace(
            suite, backward=lambda code, ctx: EqualToAll(decompile(code, "swap_sub"))
        )
        config = SuiteConfig(iterations=500, master_seed=5)
        plain, reports = run_suite(suite, dataclasses.replace(config, variant_id="swap_sub"))
        flattered, flattered_reports = run_suite(flattering, config)
        assert plain.violations > 0
        assert [r.verdict.outcome for r in flattered_reports] == [
            r.verdict.outcome for r in reports
        ]

    def test_str_subclass_posing_as_the_original_is_judged_by_its_value(self, force_input):
        # The parser indexes its source, so a subclass whose __len__ and
        # __getitem__ read another string would parse as that string.
        class Posing(str):
            def __len__(self):
                return len(src)

            def __getitem__(self, index):
                return src[index]

        src = "(1+2)*4-a"
        suite = dataclasses.replace(vm_suite(), backward=lambda code, ctx: Posing("zzz"))
        report = force_input(suite, src)
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_each_text_is_parsed_once_per_trial(self, monkeypatch):
        calls = []

        def counting(src):
            calls.append(src)
            return parse_infix(src)

        monkeypatch.setattr(vm, "parse_infix", counting)
        config = SuiteConfig(iterations=500, master_seed=9, variant_id="swap_sub")
        _, reports = run_suite(vm_suite(), config)
        differing = sum(r.m1_prime != r.m1 for r in reports)
        assert differing > 0
        assert len(calls) == len(reports) + differing

    def test_relation_parses_a_text_forward_did_not(self):
        suite = vm_suite()
        ctx = TrialContext(Rng(1), 1e-9, 1000)
        suite.forward("a", ctx)
        assert suite.relation("1-2", "2-1", None, ctx) is False
        assert suite.relation("(1+2)*4", "4*(2+1)", None, ctx) is True

    def test_letters_of_both_texts_are_their_variables(self):
        rng = Rng(23)
        for _ in range(2000):
            a, b = gen_expr_ast(rng, 5), gen_expr_ast(rng, 5)
            letters = set(print_infix(a) + print_infix(b)) & set(VARIABLES)
            assert letters == variables(a) | variables(b)

    def test_correct_variant_clean_over_1000(self):
        summary, _ = run_suite(vm_suite(), SuiteConfig(iterations=1000))
        assert summary.violations == 0 and summary.program_errors == 0
