"""Finite periodic approximants of hyperbolic {p,q} lattices.

Builds exact finite quotients of hyperbolic triangle rotation groups,
represents tight-binding Hamiltonians on them, and provides spectral,
geometric and interface (junction) tooling on top.

Submodules are imported lazily so the command-line entry point can
configure threading before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "ring",
    "triangle",
    "quotient",
    "operators",
    "spectral",
    "geometry",
    "junction",
    "outputs",
    "tolerances",
    "errors",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
