import dataclasses
import hashlib
import json
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retroharness import cli, core, report
from retroharness.cli import main
from retroharness.core import (
    Mode,
    MutationDescriptor,
    Outcome,
    Stage,
    SuiteConfig,
    SuiteDefinition,
    TrialReport,
    Verdict,
    get_suite,
    run_suite,
    safe_repr,
)
from retroharness.report import (
    _BATCH_BYTES,
    SCHEMA_VERSION,
    read_records,
    render_records,
    trial_record,
    write_report,
)

EXPECTED_SUITES = {
    "fourier",
    "factorization",
    "notation",
    "vm",
    "sine_forward",
    "sine_backward",
    "reciprocal",
}


class TestReportRecords:
    def test_record_fields_and_order(self):
        suite = get_suite("fourier")
        _, reports = run_suite(suite, SuiteConfig(iterations=3))
        record = json.loads(render_records(reports, suite).splitlines()[0])
        assert list(record) == [
            "schema_version",
            "suite",
            "variant",
            "trial_index",
            "trial_seed",
            "mode",
            "mutation",
            "verdict",
            "m1_repr",
            "m1_prime_repr",
        ]
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["suite"] == "fourier"
        assert record["mode"] == "integrated"
        assert record["verdict"]["kind"] == "pass"
        assert record["mutation"]["name"] in ("identity", "add_constant")

    def test_records_sorted_and_one_per_trial(self):
        suite = get_suite("notation")
        _, reports = run_suite(suite, SuiteConfig(iterations=20))
        records = [json.loads(line) for line in render_records(reports, suite).splitlines()]
        assert [r["trial_index"] for r in records] == list(range(20))

    def test_rendering_is_deterministic(self):
        suite = get_suite("vm")
        cfg = SuiteConfig(iterations=25, master_seed=3, variant_id="swap_sub")
        _, first = run_suite(suite, cfg)
        _, second = run_suite(suite, cfg)
        assert render_records(first, suite) == render_records(second, suite)

    # The first batch holds 1 record and the later ones about 170 each.
    @pytest.mark.parametrize("count", [0, 1, 2, 16, 17, 256, 257, 640])
    def test_batched_write_matches_one_render(self, tmp_path, count):
        suite = get_suite("reciprocal")
        _, reports = run_suite(suite, SuiteConfig(iterations=640, variant_id="off_by_eps"))
        path = tmp_path / "out.jsonl"
        write_report(str(path), reports[:count], suite)
        assert path.read_bytes() == render_records(reports[:count], suite).encode("utf-8")

    def test_write_holds_one_batch_of_text(self, tmp_path):
        # reciprocal's records are about 390 bytes and fourier's 4-8.5 kB:
        # either way the writer holds about 64 KiB of text, three times over.
        jobs = [("reciprocal", "off_by_eps", 5000), ("fourier", "coef_minus_1j", 600)]
        for name, variant, iterations in jobs:
            suite = get_suite(name)
            _, reports = run_suite(suite, SuiteConfig(iterations=iterations, variant_id=variant))
            size = len(render_records(reports, suite).encode("utf-8"))
            tracemalloc.start()
            try:
                write_report(str(tmp_path / "out.jsonl"), reports, suite)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < min(size / 4, 512 * 1024), name

    def test_record_longer_than_a_batch_is_written_alone(self, tmp_path, monkeypatch):
        suite = get_suite("reciprocal")
        _, reports = run_suite(suite, SuiteConfig(iterations=20))
        reports = [dataclasses.replace(r, m1="x" * _BATCH_BYTES) for r in reports]
        batches = []

        def spy(batch, suite):
            batches.append(len(batch))
            return render_records(batch, suite)

        monkeypatch.setattr(report, "render_records", spy)
        path = tmp_path / "out.jsonl"
        write_report(str(path), reports, suite)
        assert batches == [1] * 20
        assert path.read_bytes() == render_records(reports, suite).encode("utf-8")

    # Each long record is written alone; from the first short one on,
    # batches grow fourfold up to about 64 KiB of text per call.
    @pytest.mark.parametrize("long_records", [0, 3])
    def test_short_records_go_about_a_batch_per_call(self, tmp_path, monkeypatch, long_records):
        suite = get_suite("reciprocal")
        _, reports = run_suite(suite, SuiteConfig(iterations=2000, variant_id="off_by_eps"))
        reports[:long_records] = [
            dataclasses.replace(r, m1="x" * _BATCH_BYTES) for r in reports[:long_records]
        ]
        sizes = []

        def spy(batch, suite):
            text = render_records(batch, suite)
            sizes.append((len(batch), len(text)))
            return text

        monkeypatch.setattr(report, "render_records", spy)
        path = tmp_path / "out.jsonl"
        write_report(str(path), reports, suite)
        ramp = [1] * long_records + [1, 4, 16, 64]
        assert [count for count, _ in sizes[:len(ramp)]] == ramp
        assert all(0.9 * _BATCH_BYTES < chars < 1.1 * _BATCH_BYTES for _, chars in sizes[len(ramp):-1])
        assert path.read_bytes() == render_records(reports, suite).encode("utf-8")

    def test_unrepresentable_record_is_written_with_a_placeholder(self, tmp_path):
        suite = get_suite("reciprocal")
        _, reports = run_suite(suite, SuiteConfig(iterations=100))
        # An int past Python's 4,300-digit str limit cannot be repr'd; index
        # 17 lies in the second batch.
        reports[17] = dataclasses.replace(reports[17], m1=10**5000)
        path = tmp_path / "out.jsonl"
        write_report(str(path), reports, suite)
        records = read_records(str(path))
        assert len(records) == 100
        assert records[17]["m1_repr"] == "<repr raised ValueError>"
        assert path.read_bytes() == render_records(reports, suite).encode("utf-8")

    def test_write_report_renders_through_the_module_global(self, tmp_path, monkeypatch):
        # A traced run times rendering by replacing report.render_records.
        suite = get_suite("reciprocal")
        _, reports = run_suite(suite, SuiteConfig(iterations=100))
        calls = []
        text = "b" * (_BATCH_BYTES // 4 - 1) + "\n"

        def tagged(batch, suite):
            calls.append(len(batch))
            return text

        monkeypatch.setattr(report, "render_records", tagged)
        path = tmp_path / "out.jsonl"
        write_report(str(path), reports, suite)
        # Each batch gave a quarter of a batch's bytes, so the next holds
        # four times as many records, the most a batch may grow.
        assert calls == [1, 4, 16, 64, 15]
        assert path.read_text() == text * 5


# Text that JSON must escape: non-ASCII, quotes, backslashes, control
# characters and lone surrogates.
texts = st.text(
    st.one_of(
        st.characters(codec=None, categories=None, exclude_categories=()),
        st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff\U0001f600'),
    ),
    max_size=12,
)
special_numbers = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2**64, -(2**64) - 1, 3**80]
)
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.integers(min_value=-(2**100), max_value=2**100),
        special_numbers,
        texts,
    ),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)
parameter_keys = st.one_of(
    texts, st.integers(min_value=-(2**70), max_value=2**70), st.floats(), st.booleans(), st.none()
)


class _RaisingRepr:
    def __repr__(self):
        raise RuntimeError("no text")


datums = st.one_of(st.none(), json_values, st.builds(_RaisingRepr))


verdicts = st.one_of(
    st.just(Verdict.passed()),
    # A trial's relation violation, whose detail names the report's own data.
    st.just(core._VIOLATED),
    st.builds(Verdict.violation, texts),
    st.builds(Verdict.program_error, st.sampled_from(list(Stage)), texts),
)


@st.composite
def report_lists(draw):
    # Reports draw their names from a small shared pool, so runs of one
    # (suite, variant) pair alternate with changes of pair.
    suites = draw(st.lists(texts, min_size=1, max_size=2))
    variants = draw(st.lists(texts, min_size=1, max_size=2))
    reports = []
    for _ in range(draw(st.integers(1, 4))):
        m1, m1_prime = draw(datums), draw(datums)
        mutation = draw(st.none() | st.builds(
            MutationDescriptor, texts, st.dictionaries(parameter_keys, json_values, max_size=3)
        ))
        reports.append(TrialReport(
            draw(st.sampled_from(suites)), draw(st.sampled_from(variants)),
            draw(st.integers(0, 2**64)), draw(st.integers(0, 2**64 - 1)),
            draw(verdicts), m1, None, None, m1_prime, mutation,
        ))
    return reports


def _documented_record(report, suite):
    """The record as README's "Report files" lists its fields."""
    verdict = {"kind": report.verdict.outcome.value}
    if report.verdict.stage is not None:
        verdict["stage"] = report.verdict.stage.value
    if report.verdict.outcome is Outcome.VIOLATION and not report.verdict.detail:
        verdict["detail"] = (
            f"relation violated: m1={safe_repr(report.m1)} m1_prime={safe_repr(report.m1_prime)}"
        )
    elif report.verdict.detail:
        verdict["detail"] = report.verdict.detail
    mutation = report.mutation
    return {
        "schema_version": 1,
        "suite": report.suite,
        "variant": report.variant_id,
        "trial_index": report.trial_index,
        "trial_seed": report.trial_seed,
        "mode": suite.mode.value,
        "mutation": None if mutation is None else {"name": mutation.name, "parameters": mutation.parameters},
        "verdict": verdict,
        "m1_repr": "" if report.m1 is None else safe_repr(report.m1),
        "m1_prime_repr": "" if report.m1_prime is None else safe_repr(report.m1_prime),
    }


def _names_collide(parameters):
    """Whether two keys share one JSON object name ("1" and 1, say)."""
    return len({json.dumps({key: 0}) for key in parameters}) < len(parameters)


class TestRenderedLayout:
    @settings(max_examples=100, deadline=None)
    @given(report_lists(), st.sampled_from(list(Mode)))
    def test_lines_are_the_documented_records(self, reports, mode):
        suite = dataclasses.replace(get_suite("reciprocal"), mode=mode)
        expected = [json.dumps(_documented_record(r, suite)) + "\n" for r in reports]
        assert render_records(reports, suite) == "".join(expected)
        for r, line in zip(reports, expected):
            if r.mutation is None or not _names_collide(r.mutation.parameters):
                assert json.dumps(trial_record(r, suite)) + "\n" == line

    def test_colliding_parameter_names_keep_the_last_in_the_record(self):
        # json.dumps writes both names; parsing the line keeps the last value.
        suite = get_suite("reciprocal")
        mutation = MutationDescriptor("m", {1: "int key", "1": "str key"})
        r = TrialReport("s", "v", 0, 0, Verdict.passed(), mutation=mutation)
        line = render_records([r], suite)
        assert '"parameters": {"1": "int key", "1": "str key"}' in line
        assert trial_record(r, suite)["mutation"]["parameters"] == {"1": "str key"}


class TestCliList:
    def test_lists_builtin_suites_with_modes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        names = {line.split()[0] for line in lines}
        assert EXPECTED_SUITES <= names
        for line in lines:
            assert line.split()[1] in ("forward", "backward", "integrated")

    def test_expected_mode_assignments(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        modes = {line.split()[0]: line.split()[1] for line in out.splitlines() if line.strip()}
        assert modes["factorization"] == "forward"
        assert modes["notation"] == "integrated"
        assert modes["vm"] == "backward"
        assert modes["fourier"] == "integrated"
        assert modes["sine_forward"] == "forward"
        assert modes["sine_backward"] == "backward"
        assert modes["reciprocal"] == "integrated"


def _huge_on_every_seventh(value, ctx):
    # An int past Python's 4,300-digit str limit cannot be repr'd.
    return 10**5000 if value % 7 == 0 else value


HUGE_ECHO = SuiteDefinition(
    name="huge_echo",
    mode=Mode.INTEGRATED,
    generator=lambda ctx: ctx.rng.randint(0, 100),
    forward=lambda v, ctx: v,
    backward=_huge_on_every_seventh,
    relation=lambda m1, m1p, mutation, ctx: m1 == m1p,
)


@pytest.fixture
def huge_echo(monkeypatch):
    """HUGE_ECHO, registered for one test only."""
    monkeypatch.setitem(core._REGISTRY, HUGE_ECHO.name, HUGE_ECHO)
    return HUGE_ECHO


def _registered_echo(monkeypatch, name, **programs):
    """An echo suite registered for one test only."""
    suite = dataclasses.replace(HUGE_ECHO, **{"name": name, "backward": lambda v, ctx: v, **programs})
    monkeypatch.setitem(core._REGISTRY, name, suite)
    return suite


class _EmptyMapping(Mapping):
    """A falsy mapping that is not a dict."""

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self):
        return 0

    def __repr__(self):
        return "_EmptyMapping()"


# Mutation parameters json.dumps or dict() cannot take, or that are empty
# but not a dict, each with what the record's "parameters" field and the
# replay transcript read for it.
PARAMETER_SHAPES = {
    "huge_int": ({"k": 10**5000}, "<repr raised ValueError>", "<repr raised ValueError>"),
    "set": ({"k": {1}}, "{'k': {1}}", "{'k': {1}}"),
    "list": ([1, 2], "[1, 2]", "[1, 2]"),
    "none": (None, {}, "None"),
    "empty_list": ([], {}, "[]"),
    "empty_mapping": (_EmptyMapping(), {}, "_EmptyMapping()"),
}


@pytest.fixture(params=list(PARAMETER_SHAPES))
def shaped_parameters(request, monkeypatch):
    """An echo suite whose one mutator draws the parameters of one shape."""
    parameters, in_record, in_transcript = PARAMETER_SHAPES[request.param]
    shaped = core.Mutator("shaped", lambda value, ctx: (value, parameters))
    _registered_echo(monkeypatch, "shaped_echo", mutators=(shaped,))
    return in_record, in_transcript


class TestCliRun:
    def test_correct_run_exits_zero(self, capsys):
        code = main(["run", "--suite", "fourier", "--iterations", "50", "--seed", "42"])
        assert code == 0
        assert "violation: 0" in capsys.readouterr().out

    def test_buggy_run_exits_one(self, capsys):
        code = main(
            ["run", "--suite", "fourier", "--variant", "coef_minus_1j",
             "--iterations", "50", "--seed", "42"]
        )
        assert code == 1
        assert "first failure" in capsys.readouterr().out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["run", "--suite", "nosuch"]) == 2

    def test_unknown_variant_exits_two(self):
        assert main(["run", "--suite", "fourier", "--variant", "nope"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_two(self, eps, capsys):
        code = main(["run", "--suite", "reciprocal", "--iterations", "20", "--eps", eps])
        assert code == 2
        assert "eps must be finite" in capsys.readouterr().err

    def test_missing_suite_exits_two(self):
        assert main(["run", "--iterations", "5"]) == 2

    def test_report_file_contents(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        code = main(
            ["run", "--suite", "notation", "--iterations", "10", "--report", str(path)]
        )
        assert code == 0
        records = read_records(str(path))
        assert len(records) == 10
        assert all(r["suite"] == "notation" for r in records)

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.jsonl"
        code = main(["run", "--suite", "reciprocal", "--iterations", "5", "--report", str(path)])
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_unwritable_report_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("trials ran before the report path was checked")

        monkeypatch.setattr(cli, "run_suite", no_run)
        path = tmp_path / "missing" / "out.jsonl"
        code = main(["run", "--suite", "reciprocal", "--iterations", "5", "--report", str(path)])
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_bad_config_keeps_existing_report(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"kept": true}\n')
        code = main(["run", "--suite", "reciprocal", "--iterations", "0", "--report", str(path)])
        assert code == 2
        assert path.read_bytes() == b'{"kept": true}\n'

    def test_bad_config_creates_no_report(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(["run", "--suite", "reciprocal", "--iterations", "0", "--report", str(path)]) == 2
        assert not path.exists()

    def test_unrepresentable_values_are_reported_and_summarised(self, tmp_path, capsys, huge_echo):
        path = tmp_path / "out.jsonl"
        code = main(["run", "--suite", "huge_echo", "--iterations", "600", "--report", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        records = read_records(str(path))
        assert len(records) == 600
        placeholders = [r for r in records if r["m1_prime_repr"] == "<repr raised ValueError>"]
        assert 0 < len(placeholders) < 600
        assert all(r["verdict"]["kind"] == "violation" for r in placeholders)
        assert f"trials: 600  pass: {600 - len(placeholders)}  violation: {len(placeholders)}" in out

    def test_program_calling_sys_exit_fails_the_run(self, capsys, monkeypatch):
        _registered_echo(monkeypatch, "exiting", forward=lambda v, ctx: sys.exit(0))
        code = main(["run", "--suite", "exiting", "--iterations", "5"])
        assert code == 1
        assert "trials: 5  pass: 0  violation: 0  program_error: 5" in capsys.readouterr().out

    def test_any_mutation_parameters_are_reported(self, tmp_path, capsys, shaped_parameters):
        in_record, _ = shaped_parameters
        path = tmp_path / "out.jsonl"
        code = main(["run", "--suite", "shaped_echo", "--iterations", "5", "--report", str(path)])
        assert code == 0
        records = read_records(str(path))
        assert [r["mutation"] for r in records] == [{"name": "shaped", "parameters": in_record}] * 5

    def test_any_mutation_parameters_keep_their_own_descriptor(self, shaped_parameters):
        # Only an empty dict shares the mutator's descriptor; None, a list,
        # a non-empty dict and a falsy mapping that is not a dict do not.
        suite = get_suite("shaped_echo")
        (mutator,) = suite.mutators
        parameters = mutator.apply(None, None)[1]
        _, reports = run_suite(suite, SuiteConfig(iterations=3))
        for r in reports:
            assert r.mutation is not mutator.descriptor
            assert r.mutation.name == "shaped" and r.mutation.parameters is parameters

    def test_run_hands_write_report_the_list_of_reports(self, tmp_path, capsys, monkeypatch):
        # A traced run counts records by replacing cli.write_report.
        received = []
        monkeypatch.setattr(cli, "write_report", lambda path, reports, suite: received.append(reports))
        path = tmp_path / "out.jsonl"
        main(["run", "--suite", "reciprocal", "--iterations", "5", "--report", str(path)])
        assert len(received) == 1
        assert type(received[0]) is list and len(received[0]) == 5

    def test_report_files_byte_identical(self, tmp_path, capsys):
        args = ["run", "--suite", "vm", "--variant", "swap_sub", "--iterations", "30",
                "--seed", "7"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(args + ["--report", str(a)])
        main(args + ["--report", str(b)])
        assert hashlib.sha256(a.read_bytes()).hexdigest() == hashlib.sha256(b.read_bytes()).hexdigest()


class TestCliConfigFile:
    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "iterations": 20, "seed": 5}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "suite: reciprocal" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "variant": "correct",
                                   "iterations": 20}))
        code = main(["run", "--config", str(cfg), "--variant", "off_by_eps"])
        assert code == 1
        assert "variant: off_by_eps" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "bogus": 1}))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, kind", [("iterations", "int"), ("eps", "float")],
                             ids=["iterations", "eps"])
    def test_boolean_iterations_rejected(self, tmp_path, capsys, key, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "variant": "off_by_eps", key: True}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"'{key}' must be {kind}" in capsys.readouterr().err

    def test_string_seed_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "seed": "7"}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "'seed' must be int" in capsys.readouterr().err

    def test_integer_eps_accepted(self, tmp_path, capsys):
        # At eps = 1 the offset bug stays within tolerance, so the exit code
        # shows that the integer reached the relation.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "variant": "off_by_eps",
                                   "iterations": 20, "eps": 1}))
        assert main(["run", "--config", str(cfg)]) == 0

    def test_nan_eps_rejected(self, tmp_path, capsys):
        # json.load accepts the non-standard NaN token as a float.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"suite": "reciprocal", "iterations": 20, "eps": NaN}')
        assert main(["run", "--config", str(cfg)]) == 2
        assert "eps must be finite" in capsys.readouterr().err

    def test_integer_eps_past_float_range_rejected(self, tmp_path, capsys):
        # Any int passes 0 <= eps < inf, but one past float range overflows
        # in a relation.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"suite": "reciprocal", "iterations": 5, "eps": 1%s}' % ("0" * 400))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "eps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file"),
        ("{", "is not valid JSON"),
        ("[1]", "must hold a JSON object"),
    ], ids=["missing", "invalid_json", "not_an_object"])
    def test_unusable_config_file_exits_two(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_config_report_path(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "notation", "iterations": 5,
                                   "report_path": str(out)}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(read_records(str(out))) == 5


class TestSeedPrecedence:
    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("RETRO_SEED", "123")
        main(["run", "--suite", "notation", "--iterations", "5", "--report", str(a)])
        monkeypatch.delenv("RETRO_SEED")
        main(["run", "--suite", "notation", "--iterations", "5", "--seed", "123",
              "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env(self, capsys, monkeypatch, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("RETRO_SEED", "123")
        main(["run", "--suite", "notation", "--iterations", "5", "--seed", "9",
              "--report", str(a)])
        monkeypatch.delenv("RETRO_SEED")
        main(["run", "--suite", "notation", "--iterations", "5", "--seed", "9",
              "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("RETRO_SEED", "not-a-number")
        assert main(["run", "--suite", "notation", "--iterations", "5"]) == 2


class TestCliReplay:
    PINNED = "1491780421826728406"

    def test_replay_pinned_factorization_bug(self, capsys):
        code = main(["replay", "--suite", "factorization", "--variant", "gcd_x",
                     "--trial-seed", self.PINNED])
        out = capsys.readouterr().out
        assert code == 1
        assert "m1:         12" in out
        assert "[2, 2, 2]" in out
        assert "m1_prime:   8" in out
        assert "verdict:    violation relation violated: m1=12 m1_prime=8\n" in out

    def test_replay_correct_variant_passes_same_seed(self, capsys):
        code = main(["replay", "--suite", "factorization", "--trial-seed", self.PINNED])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict:    pass" in out

    def test_replay_of_failed_forward_reaches_no_mutation(self, capsys):
        code = main(["replay", "--suite", "factorization", "--variant", "gcd_x",
                     "--trial-seed", self.PINNED, "--step-cap", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "mutation:   (not reached)" in out
        assert "stage=forward_exec" in out

    def test_replay_prints_unrepresentable_value_as_placeholder(self, tmp_path, capsys, huge_echo):
        path = tmp_path / "r.jsonl"
        main(["run", "--suite", "huge_echo", "--iterations", "30", "--report", str(path)])
        failing = next(r for r in read_records(str(path)) if r["verdict"]["kind"] != "pass")
        capsys.readouterr()
        code = main(["replay", "--suite", "huge_echo", "--trial-seed", str(failing["trial_seed"])])
        out = capsys.readouterr().out
        assert code == 1
        assert "m1_prime:   <repr raised ValueError>\n" in out
        assert f"verdict:    violation {failing['verdict']['detail']}\n" in out

    def test_replay_prints_any_mutation_parameters(self, capsys, shaped_parameters):
        _, in_transcript = shaped_parameters
        code = main(["replay", "--suite", "shaped_echo", "--trial-seed", "1"])
        assert code == 0
        assert f"mutation:   shaped {in_transcript}\n" in capsys.readouterr().out

    def test_replay_prints_a_shared_identity_descriptor_as_before(self, capsys):
        code = main(["replay", "--suite", "reciprocal", "--trial-seed", "1"])
        assert code == 0
        assert "mutation:   identity {}\n" in capsys.readouterr().out

    def test_replay_matches_reported_failure(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        main(["run", "--suite", "vm", "--variant", "swap_sub", "--iterations", "50",
              "--seed", "7", "--report", str(path)])
        failing = next(r for r in read_records(str(path)) if r["verdict"]["kind"] != "pass")
        capsys.readouterr()
        code = main(["replay", "--suite", "vm", "--variant", "swap_sub",
                     "--trial-seed", str(failing["trial_seed"])])
        out = capsys.readouterr().out
        assert code == 1
        assert failing["m1_repr"] in out


class TestConsoleEntryPoint:
    def test_module_invocation_round_trip(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "retroharness", "run", "--suite", "notation",
             "--variant", "operand_swap", "--iterations", "20", "--seed", "42"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "violation" in result.stdout

    def test_usage_error_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "retroharness", "run", "--nope"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
