"""The public value-reading rule: ``builtin_value``, ``builtin_items`` and
``within``, as a custom suite's author uses them from ``retroharness``, and
the README naming only public names."""

import importlib
import re
from pathlib import Path

import pytest

import retroharness
from retroharness import (
    Mode,
    Outcome,
    SuiteConfig,
    SuiteDefinition,
    Variant,
    builtin_items,
    builtin_value,
    run_suite,
    within,
)

README = Path(__file__).resolve().parent.parent / "README.md"


class Int(int):
    pass


class Float(float):
    pass


class Str(str):
    pass


class ShowsOtherItems(list):
    """Iterates and measures as ``shown``, whatever it stores."""

    def __init__(self, stored, shown):
        super().__init__(stored)
        self.shown = shown

    def __iter__(self):
        return iter(self.shown)

    def __len__(self):
        return len(self.shown)


class ZeroDistanceFloat(float):
    def __sub__(self, other):
        return 0.0


class EqualsAnything(str):
    __hash__ = str.__hash__

    def __eq__(self, other):
        return True


# name: (arguments, expected result)
ITEMS = {
    "exact_list": (([1, 2.5],), [1, 2.5]),
    "tuple": (((1, 2.5),), [1, 2.5]),
    "subclass_items_converted": (([Int(3), Float(0.5)],), [3, 0.5]),
    "stored_items_not_iter": ((ShowsOtherItems([7], shown=[1.0, 2.0]),), [7]),
    "bool_item": (([1, True],), None),
    "complex_item_default_kinds": (([1, 2j],), None),
    "complex_item_complex_kinds": (([1, 2j], None, (int, float, complex)), [1, 2j]),
    "right_length": (([1, 2], 2), [1, 2]),
    "wrong_length": (([1, 2], 3), None),
    "str": (("12",), None),
    "int": ((12,), None),
    "set": (({1, 2},), None),
    "none": ((None,), None),
    "empty_list": (([],), []),
}


@pytest.mark.parametrize("case", sorted(ITEMS))
def test_builtin_items(case):
    args, expected = ITEMS[case]
    items = builtin_items(*args)
    assert items == expected
    if expected is not None:
        assert type(items) is list
        assert [type(item) for item in items] == [type(item) for item in expected]


def test_builtin_items_does_not_hand_back_the_returned_list():
    returned = [1, 2]
    assert builtin_items(returned) is not returned


def _record(ctx):
    """A labelled sample: (label, values, scale)."""
    rng = ctx.rng
    return (str(rng.randint(0, 9)), [rng.random() for _ in range(3)], rng.random())


def _record_relation(m1, m1_prime, mutation, ctx):
    returned = builtin_value(m1_prime, (tuple,))
    if returned is None or len(returned) != 3:
        return False
    label, values, scale = returned
    label_in, values_in, scale_in = m1
    values = builtin_items(values, len(values_in))
    return (
        builtin_value(label, (str,)) == label_in
        and values is not None
        and all(within(v, e, ctx.eps) for v, e in zip(values, values_in))
        and within(scale, scale_in, ctx.eps)
    )


def _returning(make):
    return Variant(backward=lambda record, ctx: make(*record))


RECORD_SUITE = SuiteDefinition(
    name="record",
    mode=Mode.INTEGRATED,
    generator=_record,
    forward=lambda record, ctx: record,
    backward=lambda record, ctx: record,
    relation=_record_relation,
    variants={
        "correct": Variant(),
        "subclasses_holding_the_values": _returning(
            lambda label, values, scale: (Str(label), ShowsOtherItems(values, []), Float(scale))
        ),
        "list_whose_iter_lies": _returning(
            lambda label, values, scale: (label, ShowsOtherItems([9.0] * len(values), values), scale)
        ),
        "float_whose_sub_lies": _returning(
            lambda label, values, scale: (label, values, ZeroDistanceFloat(scale + 1.0))
        ),
        "str_that_equals_anything": _returning(
            lambda label, values, scale: (EqualsAnything(label + "!"), values, scale)
        ),
    },
)


@pytest.mark.parametrize(
    "variant, outcome",
    [
        ("correct", Outcome.PASS),
        ("subclasses_holding_the_values", Outcome.PASS),
        ("list_whose_iter_lies", Outcome.VIOLATION),
        ("float_whose_sub_lies", Outcome.VIOLATION),
        ("str_that_equals_anything", Outcome.VIOLATION),
    ],
)
def test_custom_suite_judges_returned_values_not_their_operators(variant, outcome):
    _, reports = run_suite(RECORD_SUITE, SuiteConfig(iterations=20, variant_id=variant))
    assert {report.verdict.outcome for report in reports} == {outcome}


def test_package_exports_the_reading_rule():
    for name in ("builtin_value", "builtin_items", "within"):
        assert name in retroharness.__all__
        assert getattr(retroharness, name) is getattr(retroharness.core, name)


def _resolve(dotted):
    """The object a README name like ``core.within`` or
    ``retroharness.adapter.ExternalProgram`` denotes."""
    parts = dotted.split(".")
    if parts[0] == "core":
        parts.insert(0, "retroharness")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_readme_names_only_public_api():
    names = set(re.findall(r"`((?:core|retroharness)(?:\.\w+)+)", README.read_text()))
    assert {"core.builtin_value", "core.builtin_items", "core.within"} <= names
    for name in sorted(names):
        assert not any(part.startswith("_") for part in name.split(".")), name
        _resolve(name)
