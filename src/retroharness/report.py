"""Trial report records: one JSON object per line, schema version 1.

Records contain no timestamps, so identical runs serialize to identical
bytes.  Key order is fixed by construction order.
"""

from __future__ import annotations

import json
from typing import Any

from .core import SuiteDefinition, SuiteSummary, TrialReport, relation_detail

__all__ = ["SCHEMA_VERSION", "trial_record", "render_records", "write_report", "read_records"]

SCHEMA_VERSION = 1
# Records rendered per write: the writer holds one batch of text at a time.
_BATCH = 256


def trial_record(report: TrialReport, suite: SuiteDefinition) -> dict[str, Any]:
    mutation = None
    if report.mutation is not None:
        mutation = {"name": report.mutation.name, "parameters": dict(report.mutation.parameters)}
    m1, m1_prime = report.m1, report.m1_prime
    m1_repr, m1_prime_repr = repr(m1), repr(m1_prime)
    verdict: dict[str, Any] = {"kind": report.verdict.outcome.value}
    if report.verdict.stage is not None:
        verdict["stage"] = report.verdict.stage.value
    pair = report.verdict.violated_pair
    if pair is not None and pair[0] is m1 and pair[1] is m1_prime:
        # The verdict's pair is the record's own data: reuse its reprs.
        detail = relation_detail(m1_repr, m1_prime_repr)
    else:
        detail = report.verdict.detail
    if detail:
        verdict["detail"] = detail
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": report.suite,
        "variant": report.variant_id,
        "trial_index": report.trial_index,
        "trial_seed": report.trial_seed,
        "mode": suite.mode.value,
        "mutation": mutation,
        "verdict": verdict,
        "m1_repr": m1_repr if m1 is not None else "",
        "m1_prime_repr": m1_prime_repr if m1_prime is not None else "",
    }


def render_records(reports: list[TrialReport], suite: SuiteDefinition) -> str:
    return "".join(json.dumps(trial_record(r, suite)) + "\n" for r in reports)


def write_report(path: str, reports: list[TrialReport], suite: SuiteDefinition) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(reports), _BATCH):
            fh.write(render_records(reports[start:start + _BATCH], suite))


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
