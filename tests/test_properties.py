from hypothesis import given, settings
from hypothesis import strategies as st

from retroharness.core import derive_trial_seed
from retroharness.expr import (
    BinOp,
    Const,
    EvalError,
    Var,
    eval_ast,
    parse_infix,
    print_infix,
)
from retroharness.suites.factorization import is_prime
from retroharness.suites.fourier import dft, idft
from retroharness.suites.notation import (
    postfix_to_prefix,
    prefix_to_postfix,
    validate_postfix,
    validate_prefix,
)
from retroharness.suites.vm import compile_expr, decompile, run_vm

expr_trees = st.recursive(
    st.one_of(
        st.builds(Const, st.integers(0, 9)),
        st.builds(Var, st.sampled_from("abcde")),
    ),
    lambda children: st.builds(BinOp, st.sampled_from("+-*/"), children, children),
    max_leaves=24,
)

envs = st.fixed_dictionaries({v: st.integers(-9, 9) for v in "abcde"})


def tree_to_postfix(tree) -> str:
    if isinstance(tree, Const):
        return str(tree.value)
    if isinstance(tree, Var):
        return tree.name
    return tree_to_postfix(tree.left) + tree_to_postfix(tree.right) + tree.op


postfix_strings = expr_trees.map(tree_to_postfix)


@given(expr_trees)
def test_printer_parser_round_trip(tree):
    assert parse_infix(print_infix(tree)) == tree


@given(expr_trees, envs)
def test_vm_agrees_with_reference_evaluator(tree, env):
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


@given(expr_trees)
def test_decompiler_reconstructs_tree(tree):
    assert parse_infix(decompile(compile_expr(tree), "correct")) == tree


@given(postfix_strings)
def test_generated_postfix_is_valid(s):
    assert validate_postfix(s)


@given(postfix_strings)
def test_notation_round_trip_identity(s):
    assert prefix_to_postfix(postfix_to_prefix(s, "correct")) == s


@given(postfix_strings)
def test_conversion_preserves_stack_validity_both_variants(s):
    assert validate_prefix(postfix_to_prefix(s, "correct"))
    assert validate_prefix(postfix_to_prefix(s, "operand_swap"))


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16))
@settings(max_examples=50)
def test_fourier_round_trip_identity(xs):
    out = idft(dft(xs))
    assert all(abs(v.real - x) <= 1e-10 for v, x in zip(out, xs))
    assert all(abs(v.imag) <= 1e-10 for v in out)


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16),
    st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=50)
def test_fourier_spectrum_shift_lands_on_first_sample(xs, c):
    out = idft([v + c for v in dft(xs)])
    assert abs(out[0].real - (xs[0] + c)) <= 1e-10
    assert all(abs(out[i].real - xs[i]) <= 1e-10 for i in range(1, len(xs)))


@given(st.integers(2, 10**6))
@settings(max_examples=300)
def test_is_prime_matches_trial_division(n):
    by_division = all(n % i for i in range(2, int(n**0.5) + 1))
    assert is_prime(n) == by_division


@given(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.integers(0, 10**6))
def test_trial_seeds_distinct_for_distinct_indices(master, i, j):
    if i != j:
        assert derive_trial_seed(master, i) != derive_trial_seed(master, j)
