"""Trial report records: one JSON object per line, schema version 1.

Records contain no timestamps, so identical runs serialize to identical
bytes.  Each line is rendered directly, in the spelling ``json.dumps`` gives
the record; :func:`_line` is the record layout's only copy.
"""

from __future__ import annotations

import json
from json import dumps
from json.encoder import encode_basestring_ascii
from typing import Any

from .core import SuiteDefinition, SuiteSummary, TrialReport, relation_detail, safe_repr

__all__ = ["SCHEMA_VERSION", "trial_record", "render_records", "write_report", "read_records"]

SCHEMA_VERSION = 1
# Records rendered per write: the writer holds one batch of text at a time.
_BATCH = 256


def _string(value: Any) -> str:
    """JSON text of a field that is normally a ``str``: escaped in C when it
    is exactly one, through ``json.dumps`` otherwise."""
    return encode_basestring_ascii(value) if type(value) is str else dumps(value)


def _int(value: Any) -> str:
    return int.__repr__(value) if type(value) is int else dumps(value)


def _head(report: TrialReport) -> str:
    return (
        f'{{"schema_version": {SCHEMA_VERSION}, "suite": {_string(report.suite)}, '
        f'"variant": {_string(report.variant_id)}, "trial_index": '
    )


def _mode(suite: SuiteDefinition) -> str:
    return f', "mode": {_string(suite.mode.value)}, "mutation": '


def _line(report: TrialReport, head: str, mode: str) -> str:
    """The record's JSON line, newline included; ``head`` is
    :func:`_head` of the report and ``mode`` is :func:`_mode` of its suite."""
    mutation = report.mutation
    if mutation is None:
        mutation_json = "null"
    else:
        parameters = mutation.parameters
        mutation_json = (
            f'{{"name": {_string(mutation.name)}, '
            f'"parameters": {dumps(dict(parameters)) if parameters else "{}"}}}'
        )
    verdict = report.verdict
    stage = verdict.stage
    stage_json = f', "stage": {_string(stage.value)}' if stage is not None else ""
    m1, m1_prime = report.m1, report.m1_prime
    m1_json, m1_prime_json = _string(safe_repr(m1)), _string(safe_repr(m1_prime))
    pair = verdict.violated_pair
    if pair is not None and pair[0] is m1 and pair[1] is m1_prime:
        # The verdict's pair is the record's own data: its detail is made of
        # the escaped reprs, since escaping works one character at a time.
        detail_json = f', "detail": "{relation_detail(m1_json[1:-1], m1_prime_json[1:-1])}"'
    else:
        detail = verdict.detail
        detail_json = f', "detail": {_string(detail)}' if detail else ""
    # A missing value is named in the detail but has an empty repr field.
    if m1 is None:
        m1_json = '""'
    if m1_prime is None:
        m1_prime_json = '""'
    return (
        f'{head}{_int(report.trial_index)}, "trial_seed": {_int(report.trial_seed)}'
        f'{mode}{mutation_json}, "verdict": {{"kind": {_string(verdict.outcome.value)}'
        f'{stage_json}{detail_json}}}, "m1_repr": {m1_json}, "m1_prime_repr": {m1_prime_json}}}\n'
    )


def trial_record(report: TrialReport, suite: SuiteDefinition) -> dict[str, Any]:
    """The report's record: its rendered line, parsed."""
    return json.loads(_line(report, _head(report), _mode(suite)))


def render_records(reports: list[TrialReport], suite: SuiteDefinition) -> str:
    mode = _mode(suite)
    lines = []
    # A fresh object is no report's suite, so the first report builds a head.
    suite_name = variant = head = object()
    for report in reports:
        if report.suite is not suite_name or report.variant_id is not variant:
            suite_name, variant, head = report.suite, report.variant_id, _head(report)
        lines.append(_line(report, head, mode))
    return "".join(lines)


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
