"""Discrete fractional calculus on unit-step isolated time scales.

Fractional sums and the Riemann-Liouville / Caputo / two-parameter
interpolating difference operators, discrete Mittag-Leffler functions,
the delta Laplace transform, explicit solvers for fractional initial
value problems, and Gronwall / Ulam stability machinery -- every identity
the library relies on is numerically checkable on desk-scale grids via
:mod:`hilfer_dfc.verification` or the ``hilfer-dfc`` command line tool.

The package namespace is lazy (PEP 562): ``import hilfer_dfc`` loads no
submodule, and the first public name read from it imports the six modules
below and binds their public names here, so a command line call pays only
for the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each module's __all__ is its public surface; the package's is their union
_MODULES = ("grid", "operators", "mittag_leffler", "transforms", "solvers", "stability")
#: read as attributes, these import only themselves (``from hilfer_dfc import cli``)
_SUBMODULES = (*_MODULES, "verification", "cli")


def _load() -> None:
    """Import the six modules once; bind their public names and ``__all__`` here."""
    if "__all__" in globals():
        return
    names = ["__version__"]
    for module in (import_module(f"{__name__}.{name}") for name in _MODULES):
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
