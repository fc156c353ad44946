"""Built-in suites: the module and factory that build each one.

Importing this package imports no suite module.  ``core.get_suite`` builds
and registers a built-in suite at its first lookup, importing only its
module, and ``core.list_suites`` builds them all.  The factories import
from here as before (``from retroharness.suites import vm_suite``); each
loads its module at its first access.
"""

from importlib import import_module

# Suite name -> (module of this package, factory in it, the factory's
# keyword arguments).
BUILTINS = {
    "factorization": ("factorization", "factorization_suite", {}),
    "factorization_strict": ("factorization", "factorization_suite", {"strict": True}),
    "fourier": ("fourier", "fourier_suite", {}),
    "notation": ("notation", "notation_suite", {}),
    "reciprocal": ("elementary", "reciprocal_integrated_suite", {}),
    "sine_backward": ("elementary", "sine_backward_suite", {}),
    "sine_forward": ("elementary", "sine_forward_suite", {}),
    "vm": ("vm", "vm_suite", {}),
}

_MODULES = {factory: module for module, factory, _ in BUILTINS.values()}

__all__ = [*_MODULES]


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULES[name]}"), name)
