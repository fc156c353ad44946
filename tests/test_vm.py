import dataclasses

import pytest

from retroharness.core import Outcome, SuiteConfig, run_suite
from retroharness.expr import (
    BinOp,
    Const,
    EvalError,
    ExprSyntaxError,
    Var,
    eval_ast,
    parse_infix,
    print_infix,
)
from retroharness.generators import Rng, gen_env, gen_expr_ast
from retroharness.suites.vm import (
    Instr,
    bytecode_from_text,
    bytecode_to_text,
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


class TestBytecodeText:
    def test_round_trip(self):
        code = compile_expr(parse_infix("(1+a)/4"))
        text = bytecode_to_text(code)
        assert text == "PUSH 1\nLOAD a\nADD\nPUSH 4\nDIV\n"
        assert bytecode_from_text(text) == code

    def test_blank_lines_skipped_but_counted(self):
        assert bytecode_from_text("\nPUSH 1\n   \nPUSH 2\nADD\n\n") == [
            Instr("PUSH", 1), Instr("PUSH", 2), Instr("ADD")
        ]
        with pytest.raises(ValueError, match="bad bytecode line 3"):
            bytecode_from_text("\n  \nPUSH x\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            bytecode_from_text("PUSH\n")

    def test_bad_push_operand_names_its_line(self):
        with pytest.raises(ValueError) as err:
            bytecode_from_text("PUSH x\n")
        assert str(err.value) == "bad bytecode line 1: 'PUSH x'"


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

    def test_non_ascii_digit_source_is_violation(self, force_input):
        suite = dataclasses.replace(vm_suite(), backward=lambda code, ctx: "²")
        report = force_input(suite, "(1+2)*4")
        assert report.verdict.outcome is Outcome.VIOLATION

    def test_correct_variant_clean_over_1000(self):
        summary, _ = run_suite(vm_suite(), SuiteConfig(iterations=1000))
        assert summary.violations == 0 and summary.program_errors == 0
