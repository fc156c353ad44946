"""Command-line front end: suite discovery, runs, and single-trial replay.

Exit codes: 0 when every trial passes, 1 when at least one violation or
program error occurred, 2 for configuration or usage errors and for a
report file that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .core import (
    ConfigError, SuiteConfig, _check_type, get_suite, list_suites, replay_trial, run_suite,
    safe_repr,
)
from .report import summary_lines, write_report

__all__ = ["main"]

_DEFAULT = SuiteConfig()

# Config keys and run flags: the seed and the variant go by shorter names
# than the SuiteConfig fields they set.
_SHORT_NAMES = {"master_seed": "seed", "variant_id": "variant"}
_FIELDS = {_SHORT_NAMES.get(f.name, f.name): f.name for f in dataclasses.fields(SuiteConfig)}

_CONFIG_KEYS = {
    "suite": str,
    "report_path": str,
    **{key: type(getattr(_DEFAULT, name)) for key, name in _FIELDS.items()},
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in raw.items():
        _check_type(f"config key {key!r}", value, _CONFIG_KEYS[key])
    return raw


def _given(args: argparse.Namespace, keys) -> dict:
    """The flags among ``keys`` that were given on the command line."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _suite_config(options: dict) -> SuiteConfig:
    """SuiteConfig's defaults overridden by the run options that were set."""
    return SuiteConfig(**{_FIELDS[key]: value for key, value in options.items() if key in _FIELDS})


def _resolve_run_options(args: argparse.Namespace) -> dict:
    """Layered precedence: flags, then config file, then RETRO_SEED for the
    seed; keys set by none of them are absent."""
    options = _load_config_file(args.config) if args.config else {}

    if args.seed is None and "seed" not in options:
        env_seed = os.environ.get("RETRO_SEED")
        if env_seed is not None:
            try:
                options["seed"] = int(env_seed)
            except ValueError:
                raise ConfigError(f"RETRO_SEED must be an integer, got {env_seed!r}") from None

    options.update(_given(args, _CONFIG_KEYS))
    if not options.get("suite"):
        raise ConfigError("no suite given (use --suite or a config file)")
    return options


def _cmd_list(args: argparse.Namespace) -> int:
    for suite in list_suites():
        variants = ", ".join(suite.variant_ids())
        print(f"{suite.name}  {suite.mode.value}  variants: {variants}")
    return 0


@contextlib.contextmanager
def _report_errors(path: str):
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    options = _resolve_run_options(args)
    suite = get_suite(options["suite"])
    config = _suite_config(options)
    if path := options.get("report_path"):
        # A bad config or report path exits 2 before any trial runs; opening
        # for append creates the file or keeps its bytes.
        config.validate(suite)
        with _report_errors(path):
            open(path, "a", encoding="utf-8").close()
    summary, reports = run_suite(suite, config)
    if path:
        with _report_errors(path):
            write_report(path, reports, suite)
    for line in summary_lines(summary):
        print(line)
    return 0 if summary.passes == summary.iterations else 1


def _print_transcript(report, suite) -> None:
    print(f"suite: {report.suite}  variant: {report.variant_id}  mode: {suite.mode.value}")
    print(f"trial_seed: {report.trial_seed}")
    print(f"m1:         {safe_repr(report.m1)}")
    print(f"m2:         {safe_repr(report.m2)}")
    print(f"m2_mutated: {safe_repr(report.m2_mutated)}")
    print(f"m1_prime:   {safe_repr(report.m1_prime)}")
    if report.mutation is not None:
        print(f"mutation:   {report.mutation.name} {safe_repr(report.mutation.parameters)}")
    else:
        print("mutation:   (not reached)")
    verdict = report.verdict
    stage = f" stage={verdict.stage.value}" if verdict.stage else ""
    detail = f" {verdict.detail}" if verdict.detail else ""
    print(f"verdict:    {verdict.outcome.value}{stage}{detail}")


def _cmd_replay(args: argparse.Namespace) -> int:
    suite = get_suite(args.suite)
    config = _suite_config(_given(args, ("variant", "eps", "step_cap")))
    report = replay_trial(suite, config, args.trial_seed)
    _print_transcript(report, suite)
    return 0 if report.verdict.is_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroharness",
        description="Round-trip testing harness: run built-in suites, "
        "replay trials, inspect the registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered suites with modes and variants")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run",
        help="run a suite",
        description="Flags override config-file values; RETRO_SEED overrides "
        "the default seed when --seed is absent.",
    )
    p_run.add_argument("--suite", help="suite name (see 'list')")
    p_run.add_argument("--variant", help=f"program variant id (default: {_DEFAULT.variant_id})")
    p_run.add_argument("--iterations", type=int,
                       help=f"number of trials (default: {_DEFAULT.iterations})")
    p_run.add_argument("--seed", type=int,
                       help=f"64-bit master seed (default: {_DEFAULT.master_seed})")
    p_run.add_argument("--eps", type=float, help=f"relation tolerance (default: {_DEFAULT.eps})")
    p_run.add_argument("--step-cap", type=int,
                       help=f"work bound per program execution (default: {_DEFAULT.step_cap})")
    p_run.add_argument("--report", dest="report_path", metavar="REPORT",
                       help="write one JSON record per trial to this path")
    p_run.add_argument("--config", help="JSON config file with the same keys")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser(
        "replay",
        help="re-run one trial from a reported seed and print its transcript",
    )
    p_replay.add_argument("--suite", required=True)
    p_replay.add_argument("--variant")
    p_replay.add_argument("--trial-seed", type=int, required=True)
    p_replay.add_argument("--eps", type=float)
    p_replay.add_argument("--step-cap", type=int)
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
