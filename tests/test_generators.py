import pytest

from retroharness.expr import BinOp, Const, Var, variables
from retroharness.generators import (
    Rng,
    gen_env,
    gen_expr_ast,
    gen_postfix,
    gen_real_sequence,
)
from retroharness.suites.notation import validate_postfix


def test_rng_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_rng_random_in_unit_interval():
    rng = Rng(5)
    for _ in range(1000):
        value = rng.random()
        assert 0.0 <= value < 1.0


def test_gen_real_sequence_degenerate_length():
    rng = Rng(1)
    for _ in range(20):
        assert len(gen_real_sequence(rng, 4, 4)) == 4


def test_gen_real_sequence_rejects_bad_ranges():
    rng = Rng(1)
    with pytest.raises(ValueError):
        gen_real_sequence(rng, 5, 4)
    with pytest.raises(ValueError):
        gen_real_sequence(rng, 1, 4, lo=1.0, hi=1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: rng.randint(2, 1),
        lambda rng: rng.choice(""),
        lambda rng: gen_postfix(rng, 0),
        lambda rng: gen_expr_ast(rng, 0),
    ],
    ids=["randint_empty_range", "choice_empty", "postfix_no_nodes", "expr_depth_0"],
)
def test_degenerate_arguments_raise(call):
    with pytest.raises(ValueError):
        call(Rng(1))


def test_gen_real_sequence_reproducible_and_bounded():
    first = gen_real_sequence(Rng(77), 1, 16, -1.0, 1.0)
    second = gen_real_sequence(Rng(77), 1, 16, -1.0, 1.0)
    assert first == second
    assert all(-1.0 <= v < 1.0 for v in first)
    assert 1 <= len(first) <= 16


@pytest.mark.parametrize("value_range", [(), (-3.5, 7.25)], ids=["default", "offset"])
def test_gen_real_sequence_equals_the_scalar_draws(value_range):
    # The bulk pass must equal drawing the length, then each element with
    # rng.uniform, and leave the stream where that loop leaves it.
    lo, hi = value_range or (-1.0, 1.0)
    for seed in range(20_000):
        bulk, scalar = Rng(seed), Rng(seed)
        values = gen_real_sequence(bulk, 1, 64, *value_range)
        expected = [scalar.uniform(lo, hi) for _ in range(scalar.randint(1, 64))]
        assert values == expected, seed
        assert bulk._state == scalar._state, seed


def test_gen_postfix_always_validates():
    rng = Rng(42)
    for _ in range(10_000):
        assert validate_postfix(gen_postfix(rng, 6))


def test_gen_postfix_binary_arity():
    rng = Rng(9)
    for _ in range(500):
        s = gen_postfix(rng, 5)
        operators = sum(1 for ch in s if ch in "+-*/")
        operands = len(s) - operators
        assert operands == operators + 1


def test_gen_postfix_produces_degenerate_and_rich_shapes():
    seen_single = False
    seen_two_ops = False
    rng = Rng(8)
    for _ in range(2000):
        s = gen_postfix(rng, 2)
        ops = sum(1 for ch in s if ch in "+-*/")
        if len(s) == 1:
            seen_single = True
        if ops == 2 and len(s) == 5:  # same shape as "56a*+"
            seen_two_ops = True
    assert seen_single and seen_two_ops


def test_gen_expr_ast_depth_one_is_leaf():
    for seed in range(50):
        node = gen_expr_ast(Rng(seed), 1)
        assert isinstance(node, (Const, Var))


def test_gen_expr_ast_reproducible():
    assert gen_expr_ast(Rng(11), 4) == gen_expr_ast(Rng(11), 4)


def test_gen_expr_ast_respects_alphabet():
    def check(node):
        if isinstance(node, Const):
            assert 0 <= node.value <= 9
        elif isinstance(node, Var):
            assert node.name in "abcde"
        else:
            assert node.op in "+-*/"
            check(node.left)
            check(node.right)

    rng = Rng(4)
    for _ in range(200):
        check(gen_expr_ast(rng, 5))


def test_gen_env_covers_exactly_the_given_names():
    node = BinOp("+", Var("a"), BinOp("*", Var("c"), Const(2)))
    env = gen_env(Rng(0), sorted(variables(node)))
    assert set(env) == {"a", "c"}
    assert all(-9 <= v <= 9 for v in env.values())
