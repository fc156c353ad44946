"""Round-trip (retromorphic) testing harness.

A suite pairs a forward program mapping data into a second modality with a
backward program mapping it back; an optional mutation perturbs the
intermediate datum and a relation over the original and returned data
decides the verdict.  The system under test may play the forward role, the
backward role, or both.
"""

from . import core
from .core import *  # noqa: F401,F403  (re-exports core.__all__)
from .generators import Rng

# Importing the subpackage registers the built-in suites.
from . import suites  # noqa: E402,F401  (import for registration side effect)

__version__ = "0.1.0"

__all__ = [*core.__all__, "Rng", "suites", "__version__"]
