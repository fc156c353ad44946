"""A process imports only the suite modules it looks up, and numpy only at
the first Fourier transform.

Each import check runs in a fresh interpreter, because this test process
has already imported every module.  The registry checks run here, on an
emptied ``core._REGISTRY``, which is what a fresh process starts with.
"""

import subprocess
import sys
import textwrap
import threading
import time

import pytest

from retroharness import ConfigError, core, get_suite, list_suites, register_suite
from retroharness.suites import factorization

BUILTIN_NAMES = [
    "factorization", "factorization_strict", "fourier", "notation",
    "reciprocal", "sine_backward", "sine_forward", "vm",
]

# `retroharness list` as printed before the registry became lazy.
LIST_LINES = """\
factorization  forward  variants: correct, gcd_x
factorization_strict  forward  variants: correct, gcd_x
fourier  integrated  variants: correct, coef_minus_1j
notation  integrated  variants: correct, operand_swap
reciprocal  integrated  variants: correct, off_by_eps
sine_backward  backward  variants: correct, taylor3
sine_forward  forward  variants: correct, taylor3
vm  backward  variants: correct, swap_sub
"""

LOADED = "sorted(m for m in sys.modules if m.startswith('retroharness'))"

NON_FOURIER_RUNS = """
import contextlib, io, sys
import retroharness
from retroharness import SuiteConfig, cli, list_suites, run_suite

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["list"]) == 0
for suite in list_suites():
    if suite.name == "fourier":
        continue
    for variant in suite.variants:
        run_suite(suite, SuiteConfig(iterations=20, variant_id=variant, step_cap=10_000))
print("numpy" in sys.modules)
"""

FOURIER_RUN = """
import sys
from retroharness import SuiteConfig, get_suite, run_suite

assert "numpy" not in sys.modules
run_suite(get_suite("fourier"), SuiteConfig(iterations=1))
print("numpy" in sys.modules)
"""


def run_fresh(script: str, *args: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, *args, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def numpy_loaded_after(script: str) -> bool:
    return {"True\n": True, "False\n": False}[run_fresh(script)]


def test_import_list_and_other_suites_leave_numpy_unloaded():
    assert not numpy_loaded_after(NON_FOURIER_RUNS)


def test_first_fourier_run_loads_numpy():
    assert numpy_loaded_after(FOURIER_RUN)


def test_import_loads_only_core_and_the_suite_table():
    out = run_fresh(f"import sys, retroharness; print({LOADED})")
    assert eval(out) == ["retroharness", "retroharness.core", "retroharness.suites"]


def test_first_lookup_imports_only_its_suite_module():
    out = run_fresh(f"""
        import sys
        from retroharness import get_suite
        before = set({LOADED})
        get_suite("factorization")
        print(sorted(set({LOADED}) - before))
    """)
    assert eval(out) == ["retroharness.suites.factorization"]


def test_factories_import_from_the_suites_package():
    out = run_fresh(f"""
        import sys
        from retroharness.suites import vm_suite
        print(vm_suite().name, {LOADED})
        from retroharness.suites import *
        print(sorted(name for name, value in globals().items() if name.endswith("_suite")))
    """)
    first, second = out.splitlines()
    name, loaded = first.split(" ", 1)
    assert name == "vm"
    assert "retroharness.suites.vm" in eval(loaded)
    assert "retroharness.suites.fourier" not in eval(loaded)
    assert eval(second) == [
        "factorization_suite", "fourier_suite", "notation_suite", "reciprocal_integrated_suite",
        "sine_backward_suite", "sine_forward_suite", "vm_suite",
    ]


def test_unknown_attribute_of_the_suites_package_is_an_attribute_error():
    out = run_fresh("""
        import retroharness.suites as suites
        try:
            suites.nope_suite
        except AttributeError as exc:
            print(exc)
    """)
    assert out == "module 'retroharness.suites' has no attribute 'nope_suite'\n"


def test_unknown_suite_error_names_every_builtin_before_any_is_built():
    out = run_fresh(f"""
        import sys
        from retroharness import ConfigError, get_suite
        try:
            get_suite("nope")
        except ConfigError as exc:
            print(exc)
        print({LOADED})
    """)
    message, loaded = out.splitlines()
    assert message == f"unknown suite 'nope'; known: {', '.join(BUILTIN_NAMES)}"
    assert eval(loaded) == ["retroharness", "retroharness.core", "retroharness.suites"]


def test_list_command_prints_the_eight_builtins_from_a_fresh_interpreter():
    result = subprocess.run(
        [sys.executable, "-m", "retroharness", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, LIST_LINES, "")


@pytest.fixture
def unbuilt(monkeypatch):
    """An empty registry, as a fresh process has; restored afterwards."""
    monkeypatch.setattr(core, "_REGISTRY", {})
    return core._REGISTRY


def test_register_refuses_an_unbuilt_builtin_name(unbuilt):
    suite = factorization.factorization_suite(strict=True)
    with pytest.raises(ConfigError, match="'factorization_strict' is already registered"):
        register_suite(suite)
    assert unbuilt == {}


def test_lookup_builds_once_and_returns_the_same_object(unbuilt):
    first = get_suite("factorization_strict")
    assert list(unbuilt) == ["factorization_strict"]
    assert get_suite("factorization_strict") is first
    assert first.name == "factorization_strict"
    assert first.relation is not get_suite("factorization").relation


def test_list_builds_every_builtin_and_keeps_built_ones(unbuilt):
    vm = get_suite("vm")
    suites = list_suites()
    assert [suite.name for suite in suites] == BUILTIN_NAMES
    assert sorted(unbuilt) == BUILTIN_NAMES
    assert suites[-1] is vm
    assert all(get_suite(suite.name) is suite for suite in suites)


def test_threads_racing_a_first_lookup_get_one_object(unbuilt, monkeypatch):
    build = factorization.factorization_suite

    def slow_build(**kwargs):
        # Long enough that every thread reaches the registry before it returns.
        time.sleep(0.05)
        return build(**kwargs)

    monkeypatch.setattr(factorization, "factorization_suite", slow_build)
    workers = 4  # more than the cores of a small host
    barrier = threading.Barrier(workers)
    found = [None] * workers

    def look_up(slot):
        barrier.wait(timeout=10)
        try:
            found[slot] = get_suite("factorization")
        except ConfigError as exc:
            found[slot] = exc

    threads = [threading.Thread(target=look_up, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not any(isinstance(suite, ConfigError) for suite in found), found
    assert all(suite is found[0] for suite in found)
    assert found[0].name == "factorization"
    assert unbuilt == {"factorization": found[0]}
