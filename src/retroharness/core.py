"""Core round-trip testing pipeline.

A trial runs five stages in order: generate an input datum, map it through
the forward program, optionally mutate the intermediate datum, map it back
through the backward program, and evaluate a relation between the original
and the returned datum.  Each trial is a pure function of the suite, the
run configuration and the trial index, so whole runs replay bit for bit
from a single master seed.

Trials are independent of each other and may in principle be executed
concurrently; this runner executes them sequentially and reports are always
ordered by trial index.
"""

from __future__ import annotations

import enum
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

from .generators import _GAMMA, _MASK64, Rng, _mix64

__all__ = [
    "ConfigError",
    "StepCapExceeded",
    "Mode",
    "Stage",
    "Outcome",
    "Verdict",
    "relation_detail",
    "safe_repr",
    "MutationDescriptor",
    "Mutator",
    "IDENTITY_MUTATOR",
    "TrialContext",
    "Variant",
    "SuiteDefinition",
    "SuiteConfig",
    "TrialReport",
    "SuiteSummary",
    "derive_trial_seed",
    "run_trial",
    "replay_trial",
    "run_suite",
    "register_suite",
    "get_suite",
    "list_suites",
]


class ConfigError(ValueError):
    """Raised for invalid run configuration (bad suite, variant, counts)."""


class StepCapExceeded(RuntimeError):
    """Raised by a program that exhausted its per-execution work bound."""


class Mode(enum.Enum):
    """Which side of the pipeline the system under test occupies."""

    FORWARD = "forward"
    BACKWARD = "backward"
    INTEGRATED = "integrated"


class Stage(enum.Enum):
    GENERATE = "generate"
    FORWARD_EXEC = "forward_exec"
    MUTATE = "mutate"
    BACKWARD_EXEC = "backward_exec"
    RELATION_EVAL = "relation_eval"


class Outcome(enum.Enum):
    PASS = "pass"
    VIOLATION = "violation"
    PROGRAM_ERROR = "program_error"


def relation_detail(m1_repr: str, m1_prime_repr: str) -> str:
    """Detail text of a relation violation, from the two values' reprs."""
    return f"relation violated: m1={m1_repr} m1_prime={m1_prime_repr}"


def safe_repr(value: Any) -> str:
    """``repr(value)``, or a placeholder naming only the exception's type
    when that repr raises (an int past Python's 4,300-digit limit, a list
    nested past the recursion limit, a user ``__repr__`` that fails)."""
    try:
        return repr(value)
    except Exception as exc:  # noqa: BLE001 - any failing repr gets the placeholder
        return f"<repr raised {type(exc).__name__}>"


def _error_message(exc: BaseException) -> str:
    """``"ExcType: message"`` of a program's exception; a message whose
    ``str`` raises reads as ``<str raised ExcType>``, as in :func:`safe_repr`."""
    try:
        message = str(exc)
    except Exception as err:  # noqa: BLE001 - any failing str gets the placeholder
        message = f"<str raised {type(err).__name__}>"
    return f"{type(exc).__name__}: {message}"


def _variant(table: Mapping[str, Any], variant: str) -> Any:
    """A kernel's entry for ``variant`` in ``table``; ValueError for an id
    the table does not hold."""
    try:
        return table[variant]
    except (KeyError, TypeError):
        raise ValueError(f"unknown variant {variant!r}") from None


@dataclass(frozen=True, eq=False, slots=True)
class Verdict:
    """Result of one trial: exactly one of pass / violation / program error.

    A program error records the stage that failed.  A relation violation
    keeps the original and round-tripped data as ``violated_pair`` and
    renders them into ``detail`` only when it is read, so a run that never
    reads a detail never pays for two reprs; a value whose repr raises reads
    as :func:`safe_repr`'s placeholder.  Verdicts compare and hash by
    outcome, stage and detail text.
    """

    outcome: Outcome
    stage: Stage | None = None
    message: str = ""
    violated_pair: tuple[Any, Any] | None = None

    @classmethod
    def passed(cls) -> "Verdict":
        return _PASSED

    @classmethod
    def violation(cls, detail: str) -> "Verdict":
        return cls(Outcome.VIOLATION, message=detail)

    @classmethod
    def relation_violated(cls, m1: Any, m1_prime: Any) -> "Verdict":
        return cls(Outcome.VIOLATION, violated_pair=(m1, m1_prime))

    @classmethod
    def program_error(cls, stage: Stage, message: str) -> "Verdict":
        return cls(Outcome.PROGRAM_ERROR, stage=stage, message=message)

    @property
    def detail(self) -> str:
        if self.violated_pair is None:
            return self.message
        m1, m1_prime = self.violated_pair
        return relation_detail(safe_repr(m1), safe_repr(m1_prime))

    @property
    def is_pass(self) -> bool:
        return self.outcome is Outcome.PASS

    def _key(self) -> tuple:
        return (self.outcome, self.stage, self.detail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Verdict):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


_PASSED = Verdict(Outcome.PASS)
# Read once: ``_execute`` would otherwise look up five enum members per trial.
_GENERATE, _FORWARD_EXEC, _MUTATE, _BACKWARD_EXEC, _RELATION_EVAL = Stage


@dataclass(slots=True)
class MutationDescriptor:
    """Name and drawn parameters of the mutation applied to one trial."""

    name: str
    parameters: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def identity(cls) -> "MutationDescriptor":
        return cls("identity", {})


@dataclass
class TrialContext:
    """Per-trial execution context handed to programs and relations.

    ``rng`` is the trial's own deterministic stream.  ``eps`` and
    ``step_cap`` come from the run configuration; programs with unbounded
    loops are expected to enforce ``step_cap`` themselves by raising
    :class:`StepCapExceeded`.  During relation evaluation the mutated
    intermediate datum is available as ``m2_mutated`` for relations that
    constrain the intermediate modality as well.
    """

    rng: Rng
    eps: float
    step_cap: int
    m2_mutated: Any = None


# Programs map a datum to a datum: forward M1 -> M2, backward M2 -> M1.
Program = Callable[[Any, TrialContext], Any]
Generator = Callable[[TrialContext], Any]
Relation = Callable[[Any, Any, MutationDescriptor, TrialContext], bool]
MutateFn = Callable[[Any, TrialContext], "tuple[Any, dict[str, Any]]"]


@dataclass(frozen=True)
class Mutator:
    """A named intermediate-datum transformation.

    ``apply(m2, ctx)`` returns the mutated datum and the parameter map for
    the mutation descriptor.  The identity mutator returns its argument
    unchanged (the same object, so identity trials are bit-identical).
    """

    name: str
    apply: MutateFn


IDENTITY_MUTATOR = Mutator("identity", lambda value, ctx: (value, {}))


@dataclass(frozen=True)
class Variant:
    """Program substitution: replaces the forward and/or backward program.

    ``None`` keeps the suite's default program for that role.
    """

    forward: Program | None = None
    backward: Program | None = None


@dataclass(frozen=True)
class SuiteDefinition:
    """A named bundle of generator, programs, mutators and relation.

    ``variants`` maps a variant id to a program substitution and must
    contain the id ``"correct"`` (usually an empty substitution).  The
    relation must be pure: equal arguments, including the context's RNG
    state, give an equal answer.
    """

    name: str
    mode: Mode
    generator: Generator
    forward: Program
    backward: Program
    relation: Relation
    mutators: tuple[Mutator, ...] = (IDENTITY_MUTATOR,)
    variants: Mapping[str, Variant] = field(default_factory=lambda: {"correct": Variant()})

    def __post_init__(self) -> None:
        if "correct" not in self.variants:
            raise ConfigError(f"suite {self.name!r} must define a 'correct' variant")
        if not self.mutators:
            raise ConfigError(f"suite {self.name!r} needs at least one mutator")

    def variant_ids(self) -> list[str]:
        return list(self.variants)

    def resolve(self, variant_id: str) -> tuple[Program, Program]:
        """Forward and backward programs with the variant's substitutions."""
        try:
            variant = self.variants[variant_id]
        except KeyError:
            raise ConfigError(
                f"suite {self.name!r} has no variant {variant_id!r}; "
                f"known: {', '.join(self.variants)}"
            ) from None
        return (variant.forward or self.forward, variant.backward or self.backward)


@dataclass(frozen=True)
class SuiteConfig:
    """Run parameters: trial count, master seed, tolerance, work bound.

    Each field must have its default's type (``eps`` may also be an int);
    a bool is never accepted.
    """

    iterations: int = 1000
    master_seed: int = 42
    eps: float = 1e-10
    step_cap: int = 10_000_000
    variant_id: str = "correct"

    def validate(self, suite: SuiteDefinition) -> None:
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), type(f.default))
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        # An int eps past float range would overflow where a relation mixes it
        # with floats.
        if not 0 <= self.eps <= sys.float_info.max:
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        if self.step_cap < 1:
            raise ConfigError(f"step_cap must be >= 1, got {self.step_cap}")
        suite.resolve(self.variant_id)


@dataclass(slots=True)
class TrialReport:
    """Verdict and full data trail of one trial.

    Stages that were never reached hold ``None``; the pipeline order
    guarantees ``m1_prime`` is only present when ``m2_mutated`` is, and
    ``m2_mutated`` only when ``m2`` is.

    Slotted and not frozen, since a frozen ``__init__`` costs more than the
    rest of a trial's bookkeeping: reports compare with ``==`` and copy
    with :func:`dataclasses.replace`, but are not hashable.
    """

    suite: str
    variant_id: str
    trial_index: int
    trial_seed: int
    verdict: Verdict
    m1: Any = None
    m2: Any = None
    m2_mutated: Any = None
    m1_prime: Any = None
    mutation: MutationDescriptor | None = None


@dataclass(frozen=True)
class SuiteSummary:
    """Verdict counts for one run; the counts sum to the iteration count.

    Wall time is informational only and excluded from equality so that
    identical runs compare equal.
    """

    suite: str
    variant_id: str
    iterations: int
    passes: int
    violations: int
    program_errors: int
    first_failure_index: int | None
    first_failure_seed: int | None
    wall_time: float = field(compare=False, default=0.0)


def _is_real(value, kinds=(int, float)) -> bool:
    """Type check for a returned or configured value: an instance of
    ``kinds``, never a bool."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _within(actual, expected, tol, kinds=(int, float)) -> bool:
    """The numeric relations' one tolerance rule: ``actual`` is a ``kinds``
    number, never a bool or NaN, at most ``tol`` from ``expected``."""
    if not _is_real(actual, kinds):
        return False
    try:
        return abs(actual - expected) <= tol
    except OverflowError:
        # An int past float range, or a residual whose modulus overflows a
        # float, counts as out of tolerance.
        return False


def _check_type(name: str, value, kind: type) -> None:
    """Raise ConfigError unless ``value`` is a ``kind``; a float takes an int."""
    if not _is_real(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed; distinct indices decorrelate fully."""
    return _mix64((master_seed ^ ((trial_index + 1) * _GAMMA)) & _MASK64)


def _select_mutator(mutators: tuple[Mutator, ...], rng: Rng) -> Mutator:
    # Single-mutator suites consume no randomness here, so their program
    # streams are unaffected by mutator bookkeeping.
    if len(mutators) == 1:
        return mutators[0]
    return mutators[int(rng.random() * len(mutators))]


def _execute(
    suite: SuiteDefinition,
    config: SuiteConfig,
    trial_index: int,
    trial_seed: int,
) -> TrialReport:
    forward, backward = suite.resolve(config.variant_id)
    ctx = TrialContext(Rng(trial_seed), config.eps, config.step_cap)

    m1 = m2 = m2_mutated = m1_prime = None
    mutation: MutationDescriptor | None = None
    verdict: Verdict | None = None

    stage = _GENERATE
    try:
        m1 = suite.generator(ctx)
        mutator = _select_mutator(suite.mutators, ctx.rng)

        stage = _FORWARD_EXEC
        m2 = forward(m1, ctx)

        stage = _MUTATE
        m2_mutated, parameters = mutator.apply(m2, ctx)
        mutation = MutationDescriptor(mutator.name, parameters)
        ctx.m2_mutated = m2_mutated

        stage = _BACKWARD_EXEC
        m1_prime = backward(m2_mutated, ctx)

        stage = _RELATION_EVAL
        if suite.relation(m1, m1_prime, mutation, ctx):
            verdict = _PASSED
        else:
            verdict = Verdict.relation_violated(m1, m1_prime)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - program failures become verdicts
        # A program's sys.exit fails its trial; KeyboardInterrupt stops the run.
        verdict = Verdict.program_error(stage, _error_message(exc))

    return TrialReport(
        suite.name, config.variant_id, trial_index, trial_seed, verdict,
        m1, m2, m2_mutated, m1_prime, mutation,
    )


def run_trial(suite: SuiteDefinition, config: SuiteConfig, trial_index: int) -> TrialReport:
    """Run one trial; failures in any stage yield a program-error verdict.

    Never raises for failures of the programs under test; only invalid
    configuration (unknown variant, negative index) raises.
    """
    if trial_index < 0:
        raise ConfigError(f"trial_index must be >= 0, got {trial_index}")
    seed = derive_trial_seed(config.master_seed, trial_index)
    return _execute(suite, config, trial_index, seed)


def replay_trial(suite: SuiteDefinition, config: SuiteConfig, trial_seed: int) -> TrialReport:
    """Re-run a single trial directly from a previously reported seed.

    The configuration is validated first, as :func:`run_suite` does.
    """
    config.validate(suite)
    if not (_is_real(trial_seed, int) and 0 <= trial_seed < 2**64):
        raise ConfigError("trial_seed must be an unsigned 64-bit integer")
    return _execute(suite, config, trial_index=0, trial_seed=trial_seed)


def run_suite(
    suite: SuiteDefinition, config: SuiteConfig
) -> tuple[SuiteSummary, list[TrialReport]]:
    """Run ``config.iterations`` trials and summarise the verdicts.

    Configuration problems are raised before any trial executes.  Reports
    come back ordered by trial index and a repeated run with an equal
    configuration produces equal reports.
    """
    config.validate(suite)
    started = time.perf_counter()

    reports = [run_trial(suite, config, index) for index in range(config.iterations)]
    counts = Counter(report.verdict.outcome for report in reports)
    first_failure = next((report for report in reports if not report.verdict.is_pass), None)

    summary = SuiteSummary(
        suite=suite.name,
        variant_id=config.variant_id,
        iterations=config.iterations,
        passes=counts[Outcome.PASS],
        violations=counts[Outcome.VIOLATION],
        program_errors=counts[Outcome.PROGRAM_ERROR],
        first_failure_index=first_failure.trial_index if first_failure else None,
        first_failure_seed=first_failure.trial_seed if first_failure else None,
        wall_time=time.perf_counter() - started,
    )
    return summary, reports


# --- Suite registry -------------------------------------------------------

_REGISTRY: dict[str, SuiteDefinition] = {}


def register_suite(suite: SuiteDefinition) -> SuiteDefinition:
    """Add a suite to the global registry; names must be unique."""
    if suite.name in _REGISTRY:
        raise ConfigError(f"suite {suite.name!r} is already registered")
    _REGISTRY[suite.name] = suite
    return suite


def get_suite(name: str) -> SuiteDefinition:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown suite {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def list_suites() -> list[SuiteDefinition]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
