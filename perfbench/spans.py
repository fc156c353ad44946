"""Spans for the traced run, the span file, and the per-layer metrics.

Spans are recorded by the benchmark around calls into public functions of
the program; nothing inside ``src/`` is changed:

* every stage callable of a suite (generator, forward, backward, relation,
  each mutator's ``apply``, and the programs of every variant) is wrapped
  through ``dataclasses.replace``, under the name ``<layer>.<stage>``;
* ``core.run_trial`` is wrapped where ``run_suite`` looks it up, giving one
  ``core.trial`` span per trial whose trial index all spans inside share;
* the calls the CLI makes (``get_suite``, ``run_suite``, ``write_report``),
  ``report.render_records`` and ``ExternalProgram.__call__`` are wrapped
  where they are looked up, for the time the traced phase runs.

The no-op suite's stages are left unwrapped: they do no work, so all of its
time is harness time.

A span is (id, name, start_ns, end_ns, parent, trial, error), kept in memory
and written out as CSV when the run ends, after two ``#`` lines holding the
run's description and its counters.  ``per_layer`` derives every per-layer
metric of BENCHMARK.json from that file alone; run.py takes their units from
BENCHMARK.json.  A span's self time is its duration minus the durations of
its children, which never overlap since the run is one thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

from retroharness import SuiteDefinition, cli, core, report
from retroharness.adapter import ExternalProgram

COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "trial", "error")

SUITE_MODULES = ("elementary", "notation", "fourier", "factorization", "vm")
STAGES = ("generate", "forward", "mutate", "backward", "relation")

_JOB_SPANS = ("core.run_suite", "cli.main")
_CORE_SPANS = ("core.run_suite", "core.trial")


class Tracer:
    """Records spans in flat arrays; one thread, so a stack gives parents."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.trial = -1
        self._stack = [-1]
        self._next = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        stack, rows, clock = self._stack, self.rows, time.perf_counter_ns

        # The clock is read first and last, so that the wrapper's own cost
        # lands in the span it wraps rather than in its parent's self time.
        def traced(*args, **kwargs):
            start = clock()
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            error = -1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = self.name_id(type(exc).__name__)
                raise
            finally:
                stack.pop()
                rows.extend((sid, nid, start, clock(), parent, self.trial, error))

        return traced

    def wrap_trial(self, run_trial: Callable) -> Callable:
        inner = self.wrap("core.trial", run_trial)

        def traced(suite, config, trial_index):
            self.trial = trial_index
            try:
                return inner(suite, config, trial_index)
            finally:
                self.trial = -1

        return traced

    def trace_suite(self, suite: SuiteDefinition, layer: str) -> SuiteDefinition:
        def w(stage: str, fn: Callable | None) -> Callable | None:
            return None if fn is None else self.wrap(f"{layer}.{stage}", fn)

        return dataclasses.replace(
            suite,
            generator=w("generate", suite.generator),
            forward=w("forward", suite.forward),
            backward=w("backward", suite.backward),
            relation=w("relation", suite.relation),
            mutators=tuple(dataclasses.replace(m, apply=w("mutate", m.apply)) for m in suite.mutators),
            variants={
                vid: dataclasses.replace(v, forward=w("forward", v.forward), backward=w("backward", v.backward))
                for vid, v in suite.variants.items()
            },
        )

    @contextlib.contextmanager
    def patched(self, traced_suites: dict[str, SuiteDefinition]):
        """Wrap the program's own lookups of public functions while inside."""
        write_report = self.wrap("report.write_report", report.write_report)

        def counted_write_report(path, reports, suite):
            write_report(path, reports, suite)
            self.counters["report.records"] += len(reports)
            self.counters["report.bytes"] += os.path.getsize(path)

        patches = [
            (core, "run_trial", self.wrap_trial(core.run_trial)),
            (cli, "get_suite", traced_suites.__getitem__),
            (cli, "run_suite", self.wrap("core.run_suite", cli.run_suite)),
            (cli, "write_report", counted_write_report),
            (report, "render_records", self.wrap("report.render_records", report.render_records)),
            (ExternalProgram, "__call__", self.wrap("adapter.call", ExternalProgram.__call__)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        try:
            yield
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    def write(self, path: Path, run: dict) -> None:
        names, rows = self.names, self.rows
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# run {json.dumps(run)}\n")
            fh.write(f"# counters {json.dumps(self.counters)}\n")
            fh.write(",".join(COLUMNS) + "\n")
            for i in range(0, len(rows), len(COLUMNS)):
                sid, nid, start, end, parent, trial, error = rows[i : i + len(COLUMNS)]
                err = names[error] if error >= 0 else ""
                fh.write(f"{sid},{names[nid]},{start},{end},{parent},{trial},{err}\n")


def read(path: Path) -> tuple[dict, dict, list[tuple]]:
    """The run description, the counters and the spans of a span file."""
    run, counters, spans = {}, {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# run "):
                run = json.loads(line[6:])
            elif line.startswith("# counters "):
                counters = json.loads(line[11:])
            elif line[0].isdigit():
                sid, name, start, end, parent, trial, error = line.rstrip("\n").split(",")
                spans.append((int(sid), name, int(start), int(end), int(parent), int(trial), error))
    return run, counters, spans


def tail_percentile(n: int) -> int:
    """p99 where there are 1000 samples or more; otherwise the highest whole
    percentile with at least ten samples beyond it (the median below 20)."""
    if n >= 1000:
        return 99
    return max(50, int(100 * (1 - 10 / n))) if n else 0


def percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer(path: Path) -> dict[str, float]:
    """Every per-layer metric, derived from one span file."""
    _, counters, spans = read(path)
    children_ns: dict[int, int] = defaultdict(int)
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children_ns[parent] += end - start
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def durations_ns(name: str) -> list[int]:
        return [end - start for _, _, start, end, _, _, _ in by_name[name]]

    def total_ns(name: str) -> int:
        return sum(durations_ns(name))

    def self_ns(name: str) -> int:
        return sum(end - start - children_ns[sid] for sid, _, start, end, _, _, _ in by_name[name])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    wall = sum(end - start for name in _JOB_SPANS for _, _, start, end, parent, _, _ in by_name[name] if parent < 0)
    trial_us = [d / 1e3 for d in durations_ns("core.trial")]
    trials = len(trial_us)
    pct = tail_percentile(trials)
    core_self = sum(self_ns(name) for name in _CORE_SPANS)
    generate = sum(total_ns(name) for name in by_name if name.endswith(".generate"))
    calls_us = [d / 1e3 for d in durations_ns("adapter.call")]
    calls_pct = tail_percentile(len(calls_us))

    forward = by_name["suites.factorization.forward"]
    capped = [s for s in forward if s[6] == "StepCapExceeded"]

    metrics = {
        "core.self_us_per_trial": ratio(core_self / 1e3, trials),
        "core.self_share": ratio(core_self, wall),
        "core.retained_kb_per_trial": ratio(counters.get("core.retained_bytes", 0) / 1024, counters.get("core.retained_trials", 0)),
        "core.trial_us_p50": percentile(trial_us, 50),
        "core.trial_us_p99": percentile(trial_us, pct),
        "core.trial_us_p99_pct": pct,
        "core.trials_traced": trials,
        "generators.share": ratio(generate, wall),
    }
    for m in SUITE_MODULES:
        for stage in STAGES:
            name = f"suites.{m}.{stage}"
            metrics[f"{name}_us"] = ratio(total_ns(name) / 1e3, len(by_name[name]))
    metrics.update({
        "suites.factorization.capped_share": ratio(len(capped), len(by_name["suites.factorization.generate"])),
        "suites.factorization.capped_forward_share": ratio(
            sum(s[3] - s[2] for s in capped), total_ns("suites.factorization.forward")
        ),
        "report.render_us_per_record": ratio(total_ns("report.render_records") / 1e3, counters.get("report.records", 0)),
        "report.bytes_per_record": ratio(counters.get("report.bytes", 0), counters.get("report.records", 0)),
        "report.share": ratio(total_ns("report.write_report"), wall),
        "cli.self_us_per_trial": ratio(self_ns("cli.main") / 1e3, trials),
        "adapter.call_us_p50": percentile(calls_us, 50),
        "adapter.call_us_p99": percentile(calls_us, calls_pct),
        "adapter.calls": len(calls_us),
        "adapter.errors": sum(1 for s in by_name["adapter.call"] if s[6]),
        "adapter.spawn_s": total_ns("adapter.spawn") / 1e9,
        "tracing.overhead_share": 1 - ratio(counters.get("traced_trials_per_s", 0), counters.get("untraced_trials_per_s", 0)),
        "wrong_output_share": ratio(counters.get("wrong_jobs", 0), counters.get("job_runs", 0)),
    })
    return metrics
