import dataclasses
import os
from pathlib import Path

import pytest

from retroharness.core import SuiteConfig, SuiteDefinition, run_trial

# Child interpreters started by the CLI tests import the package from this
# checkout too, as pyproject.toml's pytest `pythonpath` does for this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def force_input():
    """Run one trial of a suite with the generator pinned to a fixed datum."""

    def _force(suite: SuiteDefinition, value, variant="correct", seed=42, **config_kwargs):
        pinned = dataclasses.replace(suite, generator=lambda ctx: value)
        config = SuiteConfig(master_seed=seed, variant_id=variant, **config_kwargs)
        return run_trial(pinned, config, 0)

    return _force
