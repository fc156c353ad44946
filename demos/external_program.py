"""Plugging an out-of-process program into a suite.

Any executable that reads one JSON request line and writes one JSON
response line can serve as a forward or backward program.  Here a small
child process doubles numbers and a second one halves them, forming a
round trip across a process boundary; a deliberately stalling child shows
the timeout handling.
"""

import sys

from retroharness import Mode, SuiteConfig, SuiteDefinition, run_suite
from retroharness.adapter import ExternalProgram

DOUBLER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "data": req["data"] * 2}), flush=True)
"""

HALVER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "data": req["data"] // 2}), flush=True)
"""

STALLER = """
import sys, time
sys.stdin.readline()
time.sleep(60)
"""


def command(body):
    return [sys.executable, "-u", "-c", body]


with ExternalProgram(command(DOUBLER), role="forward") as double, \
     ExternalProgram(command(HALVER), role="backward") as halve:
    suite = SuiteDefinition(
        name="double_halve",
        mode=Mode.FORWARD,
        generator=lambda ctx: ctx.rng.randint(0, 10**9),
        forward=double,
        backward=halve,
        relation=lambda m1, m1p, mutation, ctx: m1 == m1p,
    )
    summary, _ = run_suite(suite, SuiteConfig(iterations=50))
    print(f"double/halve round trip: {summary.passes}/{summary.iterations} pass")

with ExternalProgram(command(STALLER), role="forward", timeout=0.5) as stall:
    suite = SuiteDefinition(
        name="staller",
        mode=Mode.FORWARD,
        generator=lambda ctx: 1,
        forward=stall,
        backward=lambda v, ctx: v,
        relation=lambda m1, m1p, mutation, ctx: True,
    )
    summary, reports = run_suite(suite, SuiteConfig(iterations=1))
    print("stalling child:", reports[0].verdict.outcome.value, "-",
          reports[0].detail)
print("the harness survives; the child was killed and would be respawned")
