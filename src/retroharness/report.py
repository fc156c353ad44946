"""Trial report records: one JSON object per line, schema version 1.

Records contain no timestamps, so identical runs serialize to identical
bytes.  Key order is fixed by construction order.
"""

from __future__ import annotations

import json
from typing import Any

from .core import SuiteDefinition, SuiteSummary, TrialReport

__all__ = ["SCHEMA_VERSION", "trial_record", "render_records", "write_report", "read_records"]

SCHEMA_VERSION = 1


def trial_record(report: TrialReport, suite: SuiteDefinition) -> dict[str, Any]:
    mutation = None
    if report.mutation is not None:
        mutation = {"name": report.mutation.name, "parameters": dict(report.mutation.parameters)}
    verdict: dict[str, Any] = {"kind": report.verdict.outcome.value}
    if report.verdict.stage is not None:
        verdict["stage"] = report.verdict.stage.value
    if report.verdict.detail:
        verdict["detail"] = report.verdict.detail
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": report.suite,
        "variant": report.variant_id,
        "trial_index": report.trial_index,
        "trial_seed": report.trial_seed,
        "mode": suite.mode.value,
        "mutation": mutation,
        "verdict": verdict,
        "m1_repr": repr(report.m1) if report.m1 is not None else "",
        "m1_prime_repr": repr(report.m1_prime) if report.m1_prime is not None else "",
    }


def render_records(reports: list[TrialReport], suite: SuiteDefinition) -> str:
    return "".join(json.dumps(trial_record(r, suite)) + "\n" for r in reports)


def write_report(path: str, reports: list[TrialReport], suite: SuiteDefinition) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_records(reports, suite))


def read_records(path: str) -> list[dict[str, Any]]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def summary_lines(summary: SuiteSummary) -> list[str]:
    lines = [
        f"suite: {summary.suite}  variant: {summary.variant_id}",
        f"trials: {summary.iterations}  pass: {summary.passes}  "
        f"violation: {summary.violations}  program_error: {summary.program_errors}",
    ]
    if summary.first_failure_index is not None:
        lines.append(
            f"first failure: trial {summary.first_failure_index} "
            f"(seed {summary.first_failure_seed})"
        )
    lines.append(f"wall time: {summary.wall_time:.3f}s")
    return lines
