"""Round-trip (retromorphic) testing harness.

A suite pairs a forward program mapping data into a second modality with a
backward program mapping it back; an optional mutation perturbs the
intermediate datum and a relation over the original and returned data
decides the verdict.  The system under test may play the forward role, the
backward role, or both.
"""

from . import core
from .core import *  # noqa: F401,F403  (re-exports core.__all__, Rng included)

# Importing the subpackage loads only the table of built-in suites; a suite's
# module is imported when core.get_suite or core.list_suites first builds it.
from . import suites

__version__ = "0.1.0"

__all__ = [*core.__all__, "suites", "__version__"]
