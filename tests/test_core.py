import copy
import dataclasses
import gc
import json
import pickle
import sys
import tracemalloc

import pytest

from retroharness import core
from retroharness.core import (
    IDENTITY_MUTATOR,
    ConfigError,
    Mode,
    Mutator,
    Outcome,
    Stage,
    SuiteConfig,
    SuiteDefinition,
    TrialReport,
    Variant,
    Verdict,
    derive_trial_seed,
    get_suite,
    register_suite,
    replay_trial,
    run_suite,
    run_trial,
    safe_repr,
)
from retroharness.report import render_records


def test_derive_trial_seed_deterministic():
    assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)


def test_derive_trial_seed_distinct_for_small_indices():
    seeds = {derive_trial_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_derive_trial_seed_golden_value():
    # Frozen regression constant (first output of the SplitMix64 stream
    # seeded with zero).
    assert derive_trial_seed(0, 0) == 0xE220A8397B1DCDAF


def _echo_suite(mutators=(IDENTITY_MUTATOR,), relation=None, forward=None, backward=None):
    return SuiteDefinition(
        name="echo",
        mode=Mode.INTEGRATED,
        generator=lambda ctx: ctx.rng.randint(0, 100),
        forward=forward or (lambda v, ctx: v),
        backward=backward or (lambda v, ctx: v),
        relation=relation or (lambda m1, m1p, mutation, ctx: m1 == m1p),
        mutators=mutators,
    )


def test_run_trial_pass_records_full_transcript():
    report = run_trial(_echo_suite(), SuiteConfig(), 3)
    t = report
    assert report.verdict.outcome is Outcome.PASS
    assert t.m1 == t.m2 == t.m2_mutated == t.m1_prime
    assert t.mutation.name == "identity"
    assert t.mutation.parameters == {}
    assert report.trial_seed == derive_trial_seed(42, 3)


def test_identity_mutation_is_bit_transparent():
    marker = object()
    suite = _echo_suite(forward=lambda v, ctx: marker)
    report = run_trial(suite, SuiteConfig(), 0)
    assert report.m2 is marker
    assert report.m2_mutated is marker


def _raise(*args):
    raise RuntimeError("boom")


_FAILING_AT = {
    Stage.GENERATE: lambda: dataclasses.replace(_echo_suite(), generator=_raise),
    Stage.FORWARD_EXEC: lambda: _echo_suite(forward=_raise),
    Stage.MUTATE: lambda: _echo_suite(mutators=(Mutator("broken", _raise),)),
    Stage.BACKWARD_EXEC: lambda: _echo_suite(backward=_raise),
    Stage.RELATION_EVAL: lambda: _echo_suite(relation=_raise),
}


@pytest.mark.parametrize("stage", list(Stage), ids=lambda stage: stage.value)
def test_failing_stage_is_named_and_later_fields_stay_none(stage):
    report = run_trial(_FAILING_AT[stage](), SuiteConfig(), 0)
    assert report.verdict.outcome is Outcome.PROGRAM_ERROR
    assert report.verdict.stage is stage
    assert report.verdict.detail == "RuntimeError: boom"
    # The data trail holds exactly the values of the stages that finished.
    reached = list(Stage).index(stage)
    trail = [report.m1, report.m2, report.m2_mutated, report.m1_prime]
    assert [value is not None for value in trail] == [i < reached for i in range(4)]
    assert (report.mutation is not None) == (stage in (Stage.BACKWARD_EXEC, Stage.RELATION_EVAL))


def test_program_calling_sys_exit_fails_its_trial():
    suite = _echo_suite(forward=lambda v, ctx: sys.exit(0))
    summary, reports = run_suite(suite, SuiteConfig(iterations=3))
    assert summary.program_errors == 3
    for report in reports:
        assert report.verdict == Verdict.program_error(Stage.FORWARD_EXEC, "SystemExit: 0")


def test_keyboard_interrupt_stops_the_run():
    def interrupt(value, ctx):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_suite(_echo_suite(backward=interrupt), SuiteConfig(iterations=3))


class _RaisingStr(Exception):
    def __str__(self):
        raise RuntimeError("this message is not part of the placeholder")


@pytest.mark.parametrize(
    "make_error,detail",
    [
        # An int past Python's 4,300-digit str limit.
        (lambda: ValueError(10**5000), "ValueError: <str raised ValueError>"),
        (lambda: _RaisingStr(), "_RaisingStr: <str raised RuntimeError>"),
    ],
    ids=["huge_int", "raising_str"],
)
def test_program_error_text_that_raises_reads_as_placeholder(make_error, detail):
    def fail(value, ctx):
        raise make_error()

    suite = _echo_suite(backward=fail)
    summary, reports = run_suite(suite, SuiteConfig(iterations=2))
    assert summary.program_errors == 2
    assert reports[0].verdict == Verdict.program_error(Stage.BACKWARD_EXEC, detail)
    record = json.loads(render_records(reports[:1], suite))
    assert record["verdict"]["detail"] == detail


def test_trial_report_is_a_slotted_record_in_field_order():
    # _execute builds the record positionally, so the order is part of it.
    assert [f.name for f in dataclasses.fields(TrialReport)] == [
        "suite", "variant_id", "trial_index", "trial_seed", "verdict",
        "m1", "m2", "m2_mutated", "m1_prime", "mutation",
    ]
    passed = run_trial(_echo_suite(), SuiteConfig(), 0)
    # A violation keeps its own verdict, and vm keeps its instructions.
    violated = run_trial(get_suite("vm"), SuiteConfig(variant_id="swap_sub"), 0)
    assert violated.verdict.outcome is Outcome.VIOLATION
    for report in (passed, violated):
        kept = [report, report.mutation, report.verdict]
        kept += report.m2 if isinstance(report.m2, list) else []
        assert not any(hasattr(value, "__dict__") for value in kept)
        changed = dataclasses.replace(report, m1=-1)
        assert changed.m1 == -1 and changed != report
        assert dataclasses.replace(changed, m1=report.m1) == report


def test_violation_detail_renders_both_values():
    suite = _echo_suite(forward=lambda v, ctx: v + 1, relation=lambda a, b, m, c: a == b)
    report = run_trial(suite, SuiteConfig(), 1)
    assert report.verdict.outcome is Outcome.VIOLATION
    assert report.detail == f"relation violated: m1={report.m1!r} m1_prime={report.m1_prime!r}"


class _CountedRepr:
    """A returned datum that counts the calls to its ``__repr__``."""

    def __init__(self, value, calls):
        self.value = value
        self.calls = calls

    def __repr__(self):
        self.calls.append(None)
        return f"Counted({self.value})"


def _counted_suite(calls):
    # Every third input comes back wrong: a mix of passes and violations.
    return _echo_suite(
        backward=lambda v, ctx: _CountedRepr(v + (v % 3 == 0), calls),
        relation=lambda m1, m1p, mutation, ctx: m1 == m1p.value,
    )


class TestLazyViolationDetail:
    def test_run_suite_renders_no_detail(self):
        calls = []
        summary, _ = run_suite(_counted_suite(calls), SuiteConfig(iterations=60))
        assert summary.violations > 0 and summary.passes > 0
        assert calls == []

    def test_render_records_reprs_each_value_once_per_record(self):
        calls = []
        suite = _counted_suite(calls)
        _, reports = run_suite(suite, SuiteConfig(iterations=60))
        records = [json.loads(line) for line in render_records(reports, suite).splitlines()]
        assert len(calls) == len(records) == 60
        for report, record in zip(reports, records):
            if report.verdict.is_pass:
                assert "detail" not in record["verdict"]
            else:
                assert record["verdict"]["detail"] == (
                    f"relation violated: m1={record['m1_repr']} "
                    f"m1_prime={record['m1_prime_repr']}"
                )

    def test_detail_is_the_rendered_pair(self):
        calls = []
        _, reports = run_suite(_counted_suite(calls), SuiteConfig(iterations=60))
        violated = [r for r in reports if r.verdict.outcome is Outcome.VIOLATION]
        assert violated
        for report in violated:
            m1, m1_prime = report.m1, report.m1_prime
            assert report.detail == f"relation violated: m1={m1!r} m1_prime={m1_prime!r}"
            assert report.verdict.detail == ""

    def test_relation_violations_share_one_verdict(self):
        _, reports = run_suite(_counted_suite([]), SuiteConfig(iterations=60))
        violated = [r.verdict for r in reports if r.verdict.outcome is Outcome.VIOLATION]
        assert violated and all(verdict is core._VIOLATED for verdict in violated)

    def test_report_detail_is_its_record_detail(self):
        # Passes, relation violations and program errors in one run.
        def backward(v, ctx):
            if v % 5 == 0:
                raise RuntimeError(f"no inverse for {v}")
            return v + (v % 3 == 0)

        suite = _echo_suite(backward=backward)
        _, reports = run_suite(suite, SuiteConfig(iterations=60))
        assert {r.verdict.outcome for r in reports} == set(Outcome)
        for report in reports:
            record = json.loads(render_records([report], suite))
            assert record["verdict"].get("detail", "") == report.detail

    def test_copied_and_unpickled_reports_render_the_same_record(self):
        suite = get_suite("reciprocal")
        report = run_trial(suite, SuiteConfig(variant_id="off_by_eps"), 0)
        assert report.verdict.outcome is Outcome.VIOLATION
        line = render_records([report], suite)
        for copied in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert copied == report
            assert render_records([copied], suite) == line

    def test_equal_violations_render_alike(self):
        # Verdict.violation("") equals the shared relation violation, so it
        # too is described by the report's own data.
        suite = get_suite("reciprocal")
        report = run_trial(suite, SuiteConfig(variant_id="off_by_eps"), 0)
        empty = dataclasses.replace(report, verdict=Verdict.violation(""))
        assert empty.verdict == core._VIOLATED and empty.verdict is not core._VIOLATED
        assert empty == report
        assert empty.detail == report.detail
        assert render_records([empty], suite) == render_records([report], suite)

    def test_replaced_data_is_read_into_the_detail(self):
        suite = _echo_suite(forward=lambda v, ctx: v + 1)
        report = dataclasses.replace(run_trial(suite, SuiteConfig(), 1), m1=-5)
        record = json.loads(render_records([report], suite))
        assert record["m1_repr"] == "-5"
        assert record["verdict"]["detail"] == report.detail
        assert report.detail.startswith("relation violated: m1=-5 m1_prime=")

    def test_none_m1_is_named_in_detail_but_not_in_record(self):
        suite = dataclasses.replace(
            _echo_suite(relation=lambda m1, m1p, mutation, ctx: False),
            generator=lambda ctx: None,
        )
        report = run_trial(suite, SuiteConfig(), 0)
        assert report.detail == "relation violated: m1=None m1_prime=None"
        record = json.loads(render_records([report], suite))
        assert record["verdict"]["detail"] == report.detail
        assert record["m1_repr"] == record["m1_prime_repr"] == ""

    @pytest.mark.parametrize(
        "make_value,error",
        [
            # An int past Python's 4,300-digit str limit.
            (lambda: 10**5000, "ValueError"),
            (lambda: _RaisingRepr(), "RuntimeError"),
            (lambda: _nested_list(100_000), "RecursionError"),
        ],
        ids=["huge_int", "raising_repr", "deep_list"],
    )
    def test_unrepresentable_value_reads_as_placeholder(self, make_value, error):
        # The relation decided the verdict; where the value's text is read,
        # a placeholder naming the exception's type stands in for its repr.
        value = make_value()
        suite = _echo_suite(
            backward=lambda v, ctx: value,
            relation=lambda m1, m1p, mutation, ctx: m1 == m1p,
        )
        report = run_trial(suite, SuiteConfig(), 0)
        assert report.verdict.outcome is Outcome.VIOLATION
        assert report.verdict.stage is None
        placeholder = f"<repr raised {error}>"
        assert safe_repr(value) == placeholder
        detail = f"relation violated: m1={report.m1!r} m1_prime={placeholder}"
        assert report.detail == detail
        record = json.loads(render_records([report], suite))
        assert record["verdict"]["detail"] == detail
        assert record["m1_prime_repr"] == placeholder


class _RaisingRepr:
    def __repr__(self):
        raise RuntimeError("this message is not part of the placeholder")


def _nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_passed_verdict_is_one_shared_instance():
    assert Verdict.passed() is Verdict.passed()
    assert Verdict.passed() == Verdict(Outcome.PASS)
    assert Verdict.passed().detail == ""
    with pytest.raises(dataclasses.FrozenInstanceError):
        Verdict.passed().outcome = Outcome.VIOLATION


def test_every_trial_yields_exactly_one_verdict_kind():
    suite = _echo_suite()
    for i in range(50):
        verdict = run_trial(suite, SuiteConfig(), i).verdict
        kinds = [verdict.outcome is k for k in Outcome]
        assert sum(kinds) == 1


def test_run_suite_rejects_zero_iterations():
    with pytest.raises(ConfigError):
        run_suite(_echo_suite(), SuiteConfig(iterations=0))


def test_run_suite_rejects_unknown_variant_before_running():
    calls = []

    def counting_generator(ctx):
        calls.append(1)
        return 1

    suite = SuiteDefinition(
        name="counting",
        mode=Mode.INTEGRATED,
        generator=counting_generator,
        forward=lambda v, ctx: v,
        backward=lambda v, ctx: v,
        relation=lambda a, b, m, c: True,
    )
    with pytest.raises(ConfigError):
        run_suite(suite, SuiteConfig(variant_id="nosuch"))
    assert calls == []


def test_run_suite_reports_ordered_and_counts_sum():
    summary, reports = run_suite(_echo_suite(), SuiteConfig(iterations=25))
    assert [r.trial_index for r in reports] == list(range(25))
    assert summary.passes + summary.violations + summary.program_errors == 25
    assert summary.first_failure_index is None


def test_run_suite_calls_the_module_global_run_trial_once_per_trial(monkeypatch):
    # core.run_trial is a patch point: tracers replace it to time each trial.
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(core, "run_trial", spy)
    suite, config = get_suite("reciprocal"), SuiteConfig(iterations=4)
    _, reports = run_suite(suite, config)
    assert [(args[2], kwargs) for args, kwargs in calls] == [(i, {}) for i in range(4)]
    assert all(len(args) == 3 and args[0] is suite and args[1] is config for args, _ in calls)
    assert reports == [run_trial(suite, config, i) for i in range(4)]


def _fail_at(value, at):
    if value == at:
        raise RuntimeError(f"fails at {at}")
    return value


def _staged_suite():
    """Each trial's drawn datum names where it ends: 0 fails at generate,
    1 at forward, 2 at mutate, 3 at backward, 4 in the relation; 5 is a
    violation, 6 and 7 pass."""
    return SuiteDefinition(
        name="staged",
        mode=Mode.INTEGRATED,
        generator=lambda ctx: _fail_at(ctx.rng.randint(0, 7), 0),
        forward=lambda v, ctx: _fail_at(v, 1),
        backward=lambda v, ctx: _fail_at(v, 3),
        relation=lambda m1, m1p, mutation, ctx: _fail_at(m1, 4) != 5,
        mutators=(Mutator("staged", lambda v, ctx: (_fail_at(v, 2), {})),),
    )


class TestSuiteSummary:
    def test_all_pass(self):
        summary, _ = run_suite(_echo_suite(), SuiteConfig(iterations=30))
        assert summary == core.SuiteSummary("echo", "correct", 30, 30, 0, 0, None, None)

    def test_all_violation(self):
        suite = _echo_suite(relation=lambda a, b, m, c: False)
        summary, _ = run_suite(suite, SuiteConfig(iterations=30, master_seed=9))
        assert summary == core.SuiteSummary(
            "echo", "correct", 30, 0, 30, 0, 0, derive_trial_seed(9, 0)
        )

    def test_mixed_with_program_errors_at_every_stage(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(core, "run_trial", spy)
        suite, config = _staged_suite(), SuiteConfig(iterations=40, master_seed=3)
        summary, reports = run_suite(suite, config)
        assert summary == core.SuiteSummary(
            "staged", "correct", 40, 11, 6, 23, 4, derive_trial_seed(3, 4)
        )
        assert len(calls) == 40
        for index, (args, kwargs) in enumerate(calls):
            assert len(args) == 3 and args[0] is suite and args[1] is config
            assert (args[2], kwargs) == (index, {})
        stages = {r.verdict.stage for r in reports if r.verdict.outcome is Outcome.PROGRAM_ERROR}
        assert stages == set(Stage)
        assert [r.verdict.is_pass for r in reports[:5]] == [True] * 4 + [False]


def test_run_suite_identical_configs_identical_results():
    cfg = SuiteConfig(iterations=40, master_seed=99)
    s1, r1 = run_suite(_echo_suite(), cfg)
    s2, r2 = run_suite(_echo_suite(), cfg)
    assert s1 == s2  # wall time excluded from comparison
    assert r1 == r2


def test_first_failure_index_and_seed():
    suite = _echo_suite(relation=lambda a, b, m, c: False)
    summary, reports = run_suite(suite, SuiteConfig(iterations=5))
    assert summary.first_failure_index == 0
    assert summary.first_failure_seed == reports[0].trial_seed


def test_replay_matches_run_trial():
    suite = _echo_suite()
    cfg = SuiteConfig(master_seed=7)
    original = run_trial(suite, cfg, 11)
    replayed = replay_trial(suite, cfg, original.trial_seed)
    assert replayed.m1 == original.m1
    assert replayed.verdict == original.verdict


def test_replay_reads_the_seed_by_its_value():
    class Seed(int):
        def __and__(self, other):
            return 0

    suite = _echo_suite()
    replayed = replay_trial(suite, SuiteConfig(), Seed(5))
    assert replayed == replay_trial(suite, SuiteConfig(), 5)
    assert type(replayed.trial_seed) is int


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig(eps=float("nan")),
        SuiteConfig(step_cap=0),
        SuiteConfig(step_cap=1e7),
        SuiteConfig(master_seed=1.5),
        SuiteConfig(eps=True),
    ],
    ids=["nan_eps", "zero_step_cap", "float_step_cap", "float_master_seed", "bool_eps"],
)
def test_replay_validates_config(cfg):
    with pytest.raises(ConfigError):
        replay_trial(_echo_suite(), cfg, 5)


def test_suite_requires_correct_variant():
    with pytest.raises(ConfigError):
        SuiteDefinition(
            name="bad",
            mode=Mode.FORWARD,
            generator=lambda ctx: 0,
            forward=lambda v, ctx: v,
            backward=lambda v, ctx: v,
            relation=lambda a, b, m, c: True,
            variants={"only_bug": Variant()},
        )


def test_mutator_selection_is_deterministic():
    seen = []

    def tag(name):
        return Mutator(name, lambda v, ctx: (v, {}))

    suite = _echo_suite(mutators=(tag("a"), tag("b"), tag("c")))
    cfg = SuiteConfig(iterations=30)
    _, reports = run_suite(suite, cfg)
    names = [r.mutation.name for r in reports]
    _, reports2 = run_suite(suite, cfg)
    assert names == [r.mutation.name for r in reports2]
    assert {"a", "b", "c"} == set(names)


class TestSharedDescriptor:
    def test_parameterless_reports_share_their_mutators_descriptor(self):
        suite = get_suite("fourier")
        _, reports = run_suite(suite, SuiteConfig(iterations=60))
        identity = [r.mutation for r in reports if r.mutation.name == "identity"]
        drawn = [r.mutation for r in reports if r.mutation.name == "add_constant"]
        assert identity and drawn
        assert all(m is IDENTITY_MUTATOR.descriptor for m in identity)
        assert IDENTITY_MUTATOR.descriptor == core.MutationDescriptor("identity", {})
        assert len({id(m) for m in drawn}) == len(drawn)
        assert all(m.parameters for m in drawn)

    def test_mutators_compare_without_their_descriptor(self):
        apply = IDENTITY_MUTATOR.apply
        assert Mutator("identity", apply) == IDENTITY_MUTATOR
        assert hash(Mutator("identity", apply)) == hash(IDENTITY_MUTATOR)
        assert "descriptor" not in repr(IDENTITY_MUTATOR)
        assert dataclasses.replace(IDENTITY_MUTATOR, name="other").descriptor.name == "other"

    def test_copied_and_unpickled_shared_descriptor_reports_render_the_same_record(self):
        suite = get_suite("reciprocal")
        report = run_trial(suite, SuiteConfig(), 0)
        assert report.mutation is IDENTITY_MUTATOR.descriptor
        line = render_records([report], suite)
        for copied in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert copied == report
            assert render_records([copied], suite) == line

    def test_run_suite_keeps_at_most_320_bytes_per_report(self):
        # 2,000 reciprocal reports each hold three floats, a shared verdict
        # and their mutator's shared descriptor: about 256 bytes, where a
        # descriptor and parameter dict per report made it about 368.
        suite, config = get_suite("reciprocal"), SuiteConfig(iterations=2000, variant_id="off_by_eps")
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
        assert retained <= 320 * 2000


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: register_suite(get_suite("reciprocal")), "already registered"),
        (lambda: run_trial(_echo_suite(), SuiteConfig(), -1), "trial_index must be >= 0"),
        (lambda: replay_trial(_echo_suite(), SuiteConfig(), 2**64), "trial_seed must be"),
        (lambda: run_suite(_echo_suite(), SuiteConfig(master_seed=-1)), "master_seed must be"),
        (lambda: replay_trial(_echo_suite(), SuiteConfig(), 1.5), "trial_seed must be"),
        (lambda: run_suite(get_suite("factorization"), SuiteConfig(step_cap=1e7)),
         "step_cap must be int"),
        (lambda: run_suite(_echo_suite(), SuiteConfig(master_seed=1.5)), "master_seed must be int"),
        (lambda: run_suite(_echo_suite(), SuiteConfig(iterations=2.5)), "iterations must be int"),
        (lambda: run_suite(_echo_suite(), SuiteConfig(iterations=True)), "iterations must be int"),
        (lambda: run_suite(_echo_suite(), SuiteConfig(variant_id=None)), "variant_id must be str"),
        (lambda: _echo_suite(mutators=()), "needs at least one mutator"),
        (lambda: run_suite(get_suite("reciprocal"), SuiteConfig(eps=10**400)),
         "eps must be finite"),
    ],
    ids=["duplicate_suite", "negative_index", "seed_2_64", "negative_master_seed",
         "float_trial_seed", "float_step_cap", "float_master_seed", "float_iterations",
         "bool_iterations", "none_variant", "no_mutators", "int_eps_past_float_range"],
)
def test_bad_configuration_raises_config_error(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


class _XorZero(int):
    def __xor__(self, other):
        return 0

    __rxor__ = __xor__


class _AlwaysEqual(str):
    def __eq__(self, other):
        return True

    __hash__ = str.__hash__


def test_subclass_config_fields_run_as_their_builtin_values():
    # Each operator would change the run if it ran: the seed's ^ reads 0,
    # the eps's <= always holds, and the variant name equals every key.
    class LenientEps(float):
        def __ge__(self, other):
            return True

        __le__ = __ge__

    config = SuiteConfig(iterations=3, master_seed=_XorZero(42), eps=LenientEps(1e-10),
                         step_cap=_XorZero(10_000), variant_id=_AlwaysEqual("off_by_eps"))
    assert [type(getattr(config, f.name)) for f in dataclasses.fields(config)] == [
        int, int, float, int, str
    ]
    plain = SuiteConfig(iterations=3, master_seed=42, step_cap=10_000, variant_id="off_by_eps")
    summary, reports = run_suite(get_suite("reciprocal"), config)
    want_summary, want = run_suite(get_suite("reciprocal"), plain)
    assert len({r.m1 for r in reports}) == 3
    assert reports == want and summary == want_summary
    seed = want[1].trial_seed
    assert replay_trial(get_suite("reciprocal"), config, seed) == replay_trial(
        get_suite("reciprocal"), plain, seed
    )


def test_numpy_float64_eps_runs_as_a_float():
    np = pytest.importorskip("numpy")
    config = SuiteConfig(iterations=5, eps=np.float64(1e-10))
    assert type(config.eps) is float and config.eps == 1e-10
    summary, _ = run_suite(get_suite("reciprocal"), config)
    assert summary == run_suite(get_suite("reciprocal"), SuiteConfig(iterations=5))[0]


def test_largest_int_eps_in_float_range_runs():
    # The largest float, as an int, still mixes with floats in a relation.
    summary, _ = run_suite(get_suite("reciprocal"),
                           SuiteConfig(iterations=5, eps=int(sys.float_info.max)))
    assert summary.passes == 5


@pytest.mark.parametrize("suite_name", ["factorization", "factorization_strict", "sine_forward"])
@pytest.mark.parametrize("returned", [None, 6, "x", 1j], ids=["none", "int", "str", "complex"])
def test_wrongly_shaped_forward_output_is_violation_not_backward_error(suite_name, returned):
    # The backward of a forward-mode suite is trusted; the forward's bad
    # output must be blamed on the forward, as a violation.
    suite = dataclasses.replace(get_suite(suite_name), forward=lambda value, ctx: returned)
    report = run_trial(suite, SuiteConfig(), 0)
    assert report.verdict.outcome is Outcome.VIOLATION
