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

from .core import Outcome, SuiteDefinition, SuiteSummary, TrialReport, relation_detail, safe_repr

__all__ = ["SCHEMA_VERSION", "trial_record", "render_records", "write_report", "read_records"]

SCHEMA_VERSION = 1
# Text rendered per write: the writer holds one batch of about this many
# bytes at a time, however long its records are.  Records are ASCII, so a
# character of text is a byte of the file.
_BATCH_BYTES = 65536


# What encoding a value can raise: a type JSON lacks, an int past Python's
# 4,300-digit limit, nesting past the recursion limit.
_UNENCODABLE = (TypeError, ValueError, RecursionError)


def _json(value: Any) -> str:
    """JSON text of one record field: an exact ``str`` escaped in C, an
    exact ``int`` through ``int.__repr__``, anything else through
    ``json.dumps``.  A value that cannot be encoded is written as the JSON
    string of its :func:`safe_repr`."""
    try:
        if type(value) is str:
            return encode_basestring_ascii(value)
        if type(value) is int:
            return int.__repr__(value)
        return dumps(value)
    except _UNENCODABLE:
        return encode_basestring_ascii(safe_repr(value))


def _parameters(parameters: Any) -> str:
    """JSON object of a mutation's parameters, ``{}`` when they are empty;
    parameters that ``dict()`` cannot convert go in as their
    :func:`safe_repr` string."""
    try:
        return _json(dict(parameters)) if parameters else "{}"
    except _UNENCODABLE:
        return _json(safe_repr(parameters))


def _head(report: TrialReport) -> str:
    return (
        f'{{"schema_version": {SCHEMA_VERSION}, "suite": {_json(report.suite)}, '
        f'"variant": {_json(report.variant_id)}, "trial_index": '
    )


def _mode(suite: SuiteDefinition) -> str:
    return f', "mode": {_json(suite.mode.value)}, "mutation": '


def _line(report: TrialReport, head: str, mode: str) -> str:
    """The record's JSON line, newline included; ``head`` is
    :func:`_head` of the report and ``mode`` is :func:`_mode` of its suite."""
    mutation = report.mutation
    if mutation is None:
        mutation_json = "null"
    else:
        mutation_json = (
            f'{{"name": {_json(mutation.name)}, "parameters": {_parameters(mutation.parameters)}}}'
        )
    verdict = report.verdict
    stage = verdict.stage
    stage_json = f', "stage": {_json(stage.value)}' if stage is not None else ""
    m1, m1_prime = report.m1, report.m1_prime
    m1_json, m1_prime_json = _json(safe_repr(m1)), _json(safe_repr(m1_prime))
    detail = verdict.detail
    if detail:
        detail_json = f', "detail": {_json(detail)}'
    elif verdict.outcome is Outcome.VIOLATION:
        # A violation with no text of its own names the record's own data: its
        # detail is made of the escaped reprs, since escaping works one
        # character at a time.
        detail_json = f', "detail": "{relation_detail(m1_json[1:-1], m1_prime_json[1:-1])}"'
    else:
        detail_json = ""
    # A missing value is named in the detail but has an empty repr field.
    if m1 is None:
        m1_json = '""'
    if m1_prime is None:
        m1_prime_json = '""'
    return (
        f'{head}{_json(report.trial_index)}, "trial_seed": {_json(report.trial_seed)}'
        f'{mode}{mutation_json}, "verdict": {{"kind": {_json(verdict.outcome.value)}'
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
        # The first batch is one record, and each later one is sized from
        # the bytes per record of the one before it, so a record longer than
        # _BATCH_BYTES is written alone.  A batch grows at most fourfold,
        # since a few short records say little about the next ones.
        start, size = 0, 1
        while start < len(reports):
            text = render_records(reports[start:start + size], suite)
            fh.write(text)
            start += size
            size = max(1, min(4 * size, size * _BATCH_BYTES // len(text)))


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
