import dataclasses
import math
import sys
import time

import pytest

from retroharness import adapter
from retroharness.adapter import ExternalProgram, ExternalProgramError
from retroharness.core import (
    ConfigError,
    Mode,
    Stage,
    SuiteConfig,
    SuiteDefinition,
    TrialContext,
    run_suite,
    run_trial,
)
from retroharness.generators import Rng

ECHO = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "data": req["data"]}), flush=True)
"""

ERROR = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "error": "boom"}), flush=True)
"""

STALL = """
import sys, time
sys.stdin.readline()
time.sleep(60)
"""

CRASH_AFTER_ONE = """
import json, sys
line = sys.stdin.readline()
req = json.loads(line)
print(json.dumps({"id": req["id"], "data": req["data"]}), flush=True)
sys.exit(3)
"""

MALFORMED = """
import sys
sys.stdin.readline()
print("not json", flush=True)
"""

WRONG_ID = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"] + 1, "data": req["data"]}), flush=True)
"""

# Reports an error of as many characters as the datum says.
LONG_ERROR = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "error": "e" * req["data"]}), flush=True)
"""

NO_PAYLOAD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"]}), flush=True)
"""


# Answers "flood" with a 1 MiB line that is not JSON and "stray" with a
# 1 MiB response under the wrong id; echoes anything else.
FLOOD_LINE = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    if req["data"] == "flood":
        print("x" * 2**20, flush=True)
    elif req["data"] == "stray":
        print(json.dumps({"id": req["id"] + 1, "data": "y" * 2**20}), flush=True)
    else:
        print(json.dumps({"id": req["id"], "data": req["data"]}), flush=True)
"""


def fixture_command(body: str) -> list[str]:
    return [sys.executable, "-u", "-c", body]


def make_ctx() -> TrialContext:
    return TrialContext(rng=Rng(0), eps=1e-10, step_cap=1)


def external_suite(program: ExternalProgram) -> SuiteDefinition:
    return SuiteDefinition(
        name="external_echo",
        mode=Mode.INTEGRATED,
        generator=lambda ctx: ctx.rng.randint(0, 10**6),
        forward=program,
        backward=program,
        relation=lambda m1, m1p, mutation, ctx: m1 == m1p,
    )


class TestExternalProgram:
    def test_loopback_round_trip(self):
        with ExternalProgram(fixture_command(ECHO)) as program:
            assert program({"x": [1, 2, 3]}, make_ctx()) == {"x": [1, 2, 3]}
            assert program("text", make_ctx()) == "text"

    def test_loopback_suite_100_trials_pass(self):
        with ExternalProgram(fixture_command(ECHO)) as program:
            summary, _ = run_suite(external_suite(program), SuiteConfig(iterations=100))
        assert summary.passes == 100

    def test_reported_error_becomes_program_error_and_suite_continues(self):
        with ExternalProgram(fixture_command(ERROR)) as program:
            summary, reports = run_suite(external_suite(program), SuiteConfig(iterations=5))
        assert summary.program_errors == 5
        assert all(r.verdict.stage is Stage.FORWARD_EXEC for r in reports)
        assert all("boom" in r.verdict.detail for r in reports)

    def test_stall_times_out_without_harness_failure(self):
        with ExternalProgram(fixture_command(STALL), timeout=0.5) as program:
            summary, reports = run_suite(external_suite(program), SuiteConfig(iterations=2))
        assert summary.program_errors == 2
        assert all("timed out" in r.verdict.detail for r in reports)

    def test_crashing_child_is_restarted(self):
        with ExternalProgram(fixture_command(CRASH_AFTER_ONE), timeout=2.0) as program:
            ctx = make_ctx()
            assert program(1, ctx) == 1
            # The child exits after answering.  Depending on how quickly the
            # exit is observed, the next call either hits one error (and is
            # restarted) or already talks to a fresh child; either way the
            # harness keeps serving requests.
            try:
                assert program(2, ctx) == 2
            except ExternalProgramError:
                assert program(3, ctx) == 3

    @pytest.mark.parametrize("datum", [float("nan"), float("inf"), [1.0, float("-inf")]],
                             ids=["nan", "inf", "nested_minus_inf"])
    def test_non_json_datum_is_refused_without_restart(self, datum):
        with ExternalProgram(fixture_command(ECHO)) as program:
            ctx = make_ctx()
            pid = program._child.pid
            with pytest.raises(ExternalProgramError, match="not JSON"):
                program(datum, ctx)
            assert program(2.5, ctx) == 2.5
            assert program._child.pid == pid

    def test_malformed_response_is_program_error(self):
        with ExternalProgram(fixture_command(MALFORMED), timeout=2.0) as program:
            with pytest.raises(ExternalProgramError):
                program(1, make_ctx())

    @pytest.mark.parametrize("body, message", [
        (WRONG_ID, "does not match request id"),
        (NO_PAYLOAD, "neither data nor error"),
    ], ids=["wrong_id", "no_payload"])
    def test_protocol_violation_is_program_error(self, body, message):
        with ExternalProgram(fixture_command(body), timeout=2.0) as program:
            with pytest.raises(ExternalProgramError, match=message):
                program(1, make_ctx())

    def test_close_releases_pipes_and_reaps_child(self):
        program = ExternalProgram(fixture_command(ECHO))
        child = program._child
        program.close()
        assert child.stdin.closed
        assert child.stdout.closed
        assert child.returncode is not None

    def test_dead_child_is_released_before_restart(self):
        with ExternalProgram(fixture_command(CRASH_AFTER_ONE), timeout=2.0) as program:
            ctx = make_ctx()
            assert program(1, ctx) == 1
            dead = program._child
            dead.wait(timeout=5.0)
            assert program(2, ctx) == 2
            assert program._child is not dead
            assert dead.stdin.closed and dead.stdout.closed

    def test_spawn_failure_is_config_error(self):
        with pytest.raises(ConfigError):
            ExternalProgram(["/nonexistent/binary"])

    def test_role_validation(self):
        with pytest.raises(ConfigError):
            ExternalProgram(fixture_command(ECHO), role="sideways")

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, 0, -1, True, 10**400],
                             ids=["nan", "inf", "zero", "negative", "bool", "past_select_range"])
    def test_timeout_select_cannot_wait_on_is_refused_before_spawn(self, timeout, monkeypatch):
        monkeypatch.setattr(ExternalProgram, "_spawn", lambda self: pytest.fail("child spawned"))
        with pytest.raises(ConfigError, match="timeout must be"):
            ExternalProgram(fixture_command(ECHO), timeout=timeout)

    def test_errors_do_not_poison_later_trials(self):
        # A sentinel datum stalls the child; other data echo normally even
        # after the stalled child was killed and replaced.
        mixed = """
import json, sys, time
for line in sys.stdin:
    req = json.loads(line)
    if req["data"] == "stall":
        time.sleep(60)
    print(json.dumps({"id": req["id"], "data": req["data"]}), flush=True)
"""
        with ExternalProgram(fixture_command(mixed), timeout=0.5) as program:
            ctx = make_ctx()
            with pytest.raises(ExternalProgramError):
                program("stall", ctx)
            assert program("ok", ctx) == "ok"

    def test_overlong_response_line_is_refused_and_child_replaced(self, monkeypatch):
        # The child floods its output without a newline; the cap, not the
        # timeout, must end the call.
        monkeypatch.setattr(adapter, "MAX_RESPONSE_BYTES", 1024)
        flood = """
import json, sys, time
for line in sys.stdin:
    req = json.loads(line)
    if req["data"] == "flood":
        sys.stdout.write("x" * 4096)
        sys.stdout.flush()
        time.sleep(60)
    print(json.dumps({"id": req["id"], "data": req["data"]}), flush=True)
"""
        with ExternalProgram(fixture_command(flood), timeout=30.0) as program:
            ctx = make_ctx()
            pid = program._child.pid
            started = time.monotonic()
            with pytest.raises(ExternalProgramError, match="longer than 1024 bytes"):
                program("flood", ctx)
            assert time.monotonic() - started < 5.0
            assert program("ok", ctx) == "ok"
            assert program._child.pid != pid

    @pytest.mark.parametrize("datum, message", [
        ("flood", "malformed response line of 1048576 bytes: b'xxx"),
        ("stray", "does not match request id 1, line of 1048597 bytes: b'{\"id\": 2"),
    ], ids=["not_json", "wrong_id"])
    def test_long_bad_line_is_echoed_in_bounded_form(self, datum, message):
        with ExternalProgram(fixture_command(FLOOD_LINE), timeout=10.0) as program:
            pid = program._child.pid
            suite = dataclasses.replace(external_suite(program), generator=lambda ctx: datum)
            report = run_trial(suite, SuiteConfig(), 0)
            assert report.verdict.stage is Stage.FORWARD_EXEC
            assert message in report.verdict.detail
            assert len(report.verdict.detail) < 400
            assert program("ok", make_ctx()) == "ok"
            assert program._child.pid != pid

    def test_long_reported_error_is_quoted_in_bounded_form(self):
        with ExternalProgram(fixture_command(LONG_ERROR), timeout=10.0) as program:
            pid = program._child.pid
            with pytest.raises(ExternalProgramError) as long_error:
                program(2**20, make_ctx())
            detail = str(long_error.value)
            assert detail.startswith("external program error: 1048576 characters: 'eee")
            assert detail.endswith("...") and len(detail) < 400
            # An error of up to ECHO_BYTES characters is kept whole.
            whole = "e" * adapter.ECHO_BYTES
            with pytest.raises(ExternalProgramError, match=f"^external program error: {whole}$"):
                program(adapter.ECHO_BYTES, make_ctx())
            assert program._child.pid == pid
