"""numpy is loaded by the first Fourier transform, not by the package.

Each check runs in a fresh interpreter, because this test process has
already imported numpy.
"""

import subprocess
import sys
import textwrap

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


def numpy_loaded_after(script: str) -> bool:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return {"True\n": True, "False\n": False}[result.stdout]


def test_import_list_and_other_suites_leave_numpy_unloaded():
    assert not numpy_loaded_after(NON_FOURIER_RUNS)


def test_first_fourier_run_loads_numpy():
    assert numpy_loaded_after(FOURIER_RUN)
