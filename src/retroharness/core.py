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

Trials draw from :class:`Rng`, a SplitMix64 stream.  The suite registry
builds each built-in suite at its first lookup, so a process imports only
the suite modules it uses.
"""

from __future__ import annotations

import enum
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

from . import suites

__all__ = [
    "Rng",
    "ConfigError",
    "StepCapExceeded",
    "Mode",
    "Stage",
    "Outcome",
    "Verdict",
    "relation_detail",
    "safe_repr",
    "builtin_value",
    "builtin_items",
    "within",
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


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
    Mixes a Python int, or returns a new numpy uint64 array, whose arithmetic
    wraps modulo 2**64 as the masks do (numpy scalars would warn instead)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic 64-bit random stream (SplitMix64).

    Same seed, same stream; advancing is explicit through the drawing
    methods.  Instances are cheap and are created per trial.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends inclusive."""
        if lo > hi:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]


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


@dataclass(frozen=True, slots=True)
class Verdict:
    """Result of one trial: exactly one of pass / violation / program error.

    A program error records the stage that failed.  A violation with no
    detail of its own, such as a trial's relation violation (the shared
    ``_VIOLATED``), is described by its report's own data
    (:attr:`TrialReport.detail`), so equal verdicts render alike.
    """

    outcome: Outcome
    stage: Stage | None = None
    detail: str = ""

    @classmethod
    def passed(cls) -> "Verdict":
        return _PASSED

    @classmethod
    def violation(cls, detail: str) -> "Verdict":
        return cls(Outcome.VIOLATION, detail=detail)

    @classmethod
    def program_error(cls, stage: Stage, message: str) -> "Verdict":
        return cls(Outcome.PROGRAM_ERROR, stage, message)

    @property
    def is_pass(self) -> bool:
        return self.outcome is Outcome.PASS


_PASSED = Verdict(Outcome.PASS)
_VIOLATED = Verdict(Outcome.VIOLATION)
# Read once: ``_execute`` and ``run_suite`` would otherwise look up enum
# members per trial.
_GENERATE, _FORWARD_EXEC, _MUTATE, _BACKWARD_EXEC, _RELATION_EVAL = Stage
_PASS, _VIOLATION = Outcome.PASS, Outcome.VIOLATION


@dataclass(slots=True)
class MutationDescriptor:
    """Name and drawn parameters of the mutation applied to one trial.

    Every trial whose mutation drew no parameters holds its mutator's one
    shared descriptor (:attr:`Mutator.descriptor`), so a report's
    ``mutation`` is read-only.
    """

    name: str
    parameters: Mapping[str, Any] = field(default_factory=dict)


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

    ``descriptor`` is built once, for the parameterless case: a trial whose
    ``apply`` returns an empty ``dict`` holds it instead of a descriptor of
    its own.  Any other parameters, ``None`` or an empty mapping of another
    type included, get a fresh :class:`MutationDescriptor` holding them.
    """

    name: str
    apply: MutateFn
    descriptor: MutationDescriptor = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "descriptor", MutationDescriptor(self.name, {}))


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
    a bool is never accepted.  A field given as a subclass instance (an
    ``int`` subclass seed, a numpy ``float64`` eps) is kept as its built-in
    value (:func:`builtin_value`), so runs and replays never run its own
    operators.
    """

    iterations: int = 1000
    master_seed: int = 42
    eps: float = 1e-10
    step_cap: int = 10_000_000
    variant_id: str = "correct"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = builtin_value(getattr(self, f.name), _kinds(type(f.default)))
            if value is not None:
                object.__setattr__(self, f.name, value)

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

    @property
    def detail(self) -> str:
        """The verdict's text; for a violation with no text of its own, the
        text naming ``m1`` and ``m1_prime``, rendered by :func:`safe_repr`
        when read."""
        verdict = self.verdict
        if verdict.outcome is Outcome.VIOLATION and not verdict.detail:
            return relation_detail(safe_repr(self.m1), safe_repr(self.m1_prime))
        return verdict.detail


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


# Each built-in type a relation judges, with that type's own conversion.  The
# container copies read the stored items, not the subclass's __iter__/__len__.
_CONVERSIONS = (
    (int, int.__int__),
    (float, float.__float__),
    (complex, complex.__complex__),
    (str, str.__str__),
    (list, list.copy),
    (tuple, lambda value: tuple.__getitem__(value, slice(None))),
)


def builtin_value(value, kinds=(int, float)):
    """The built-in value of ``value`` if it is an instance of ``kinds`` (a
    tuple of built-in types among int, float, complex, str, list and tuple)
    and not a bool, else None: the one rule by which relations, trusted
    programs and config checks read a value.  A subclass instance converts
    by its base type's own method (``float.__float__``, ``list.copy`` and
    the like), which runs none of the subclass's methods, so a relation
    judges the value returned, never the returned object's operators."""
    if type(value) in kinds:
        return value
    if isinstance(value, kinds) and not isinstance(value, bool):
        for kind, convert in _CONVERSIONS:
            if isinstance(value, kind):
                return convert(value)
    return None


def builtin_items(value, length=None, kinds=(int, float)):
    """The stored items of a list or tuple ``value``, as a list of their
    built-in values (:func:`builtin_value`), or None when ``value`` is
    another type, does not hold ``length`` items (if given), or holds an
    item that is not of ``kinds``."""
    items = builtin_value(value, (list, tuple))
    if items is None or length is not None and len(items) != length:
        return None
    if set(map(type, items)).issubset(kinds):
        return list(items)
    items = [builtin_value(item, kinds) for item in items]
    return None if None in items else items


def within(actual, expected, tol, kinds=(int, float)) -> bool:
    """The numeric relations' one tolerance rule: ``actual`` is a ``kinds``
    number, never a bool or NaN, whose built-in value is at most ``tol``
    from ``expected``."""
    if type(actual) not in kinds:
        actual = builtin_value(actual, kinds)
        if actual is None:
            return False
    try:
        return abs(actual - expected) <= tol
    except OverflowError:
        # An int past float range, or a residual whose modulus overflows a
        # float, counts as out of tolerance.
        return False


def _kinds(kind: type) -> tuple[type, ...]:
    """The types a config value of ``kind`` may have; a float takes an int."""
    return (int, float) if kind is float else (kind,)


def _check_type(name: str, value, kind: type) -> None:
    """Raise ConfigError unless ``value`` is a ``kind``; a float takes an int."""
    if builtin_value(value, _kinds(kind)) is None:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed; distinct indices decorrelate fully."""
    return _mix64((master_seed ^ ((trial_index + 1) * _GAMMA)) & _MASK64)


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

    stage = _GENERATE
    try:
        m1 = suite.generator(ctx)
        # A single mutator draws nothing, so its suite's program streams
        # are unaffected by mutator bookkeeping.
        mutators = suite.mutators
        if len(mutators) == 1:
            mutator = mutators[0]
        else:
            mutator = mutators[int(ctx.rng.random() * len(mutators))]

        stage = _FORWARD_EXEC
        m2 = forward(m1, ctx)

        stage = _MUTATE
        m2_mutated, parameters = mutator.apply(m2, ctx)
        if type(parameters) is dict and not parameters:
            mutation = mutator.descriptor
        else:
            mutation = MutationDescriptor(mutator.name, parameters)
        ctx.m2_mutated = m2_mutated

        stage = _BACKWARD_EXEC
        m1_prime = backward(m2_mutated, ctx)

        stage = _RELATION_EVAL
        if suite.relation(m1, m1_prime, mutation, ctx):
            verdict = _PASSED
        else:
            verdict = _VIOLATED
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
    seed = builtin_value(trial_seed, (int,))
    if seed is None or not 0 <= seed < 2**64:
        raise ConfigError("trial_seed must be an unsigned 64-bit integer")
    return _execute(suite, config, trial_index=0, trial_seed=seed)


def run_suite(
    suite: SuiteDefinition, config: SuiteConfig
) -> tuple[SuiteSummary, list[TrialReport]]:
    """Run ``config.iterations`` trials and summarise the verdicts.

    Configuration problems are raised before any trial executes.  Each
    trial runs through the module-global :func:`run_trial`, in index order,
    and one pass over the reports counts the verdicts and finds the first
    failure.  Reports come back ordered by trial index and a repeated run
    with an equal configuration produces equal reports; reports of a
    parameterless mutation share their mutator's descriptor.
    """
    config.validate(suite)
    started = time.perf_counter()

    reports = [run_trial(suite, config, index) for index in range(config.iterations)]
    violations = program_errors = 0
    first_failure = None
    for report in reports:
        if report.verdict.outcome is not _PASS:
            if report.verdict.outcome is _VIOLATION:
                violations += 1
            else:
                program_errors += 1
            if first_failure is None:
                first_failure = report

    summary = SuiteSummary(
        suite=suite.name,
        variant_id=config.variant_id,
        iterations=config.iterations,
        passes=len(reports) - violations - program_errors,
        violations=violations,
        program_errors=program_errors,
        first_failure_index=first_failure.trial_index if first_failure else None,
        first_failure_seed=first_failure.trial_seed if first_failure else None,
        wall_time=time.perf_counter() - started,
    )
    return summary, reports


# --- Suite registry -------------------------------------------------------

# Built and registered suites by name.  A built-in suite (``suites.BUILTINS``)
# is built and added at its first lookup, under _BUILD_LOCK, so that two
# threads racing a first lookup get the same object.
_REGISTRY: dict[str, SuiteDefinition] = {}
_BUILD_LOCK = threading.Lock()


def register_suite(suite: SuiteDefinition) -> SuiteDefinition:
    """Add a suite to the global registry; names must be unique, and a
    built-in suite's name is taken whether or not it has been built."""
    if suite.name in _REGISTRY or suite.name in suites.BUILTINS:
        raise ConfigError(f"suite {suite.name!r} is already registered")
    _REGISTRY[suite.name] = suite
    return suite


def _names() -> list[str]:
    return sorted(_REGISTRY.keys() | suites.BUILTINS.keys())


def get_suite(name: str) -> SuiteDefinition:
    """The registered suite ``name``; a built-in suite is built, and its
    module imported, at its first lookup, and is the same object after."""
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if name not in suites.BUILTINS:
        raise ConfigError(f"unknown suite {name!r}; known: {', '.join(_names())}")
    with _BUILD_LOCK:
        if name not in _REGISTRY:
            _, factory, kwargs = suites.BUILTINS[name]
            _REGISTRY[name] = getattr(suites, factory)(**kwargs)
        return _REGISTRY[name]


def list_suites() -> list[SuiteDefinition]:
    """Every registered suite, by name; builds the built-ins not yet built."""
    return [get_suite(name) for name in _names()]
