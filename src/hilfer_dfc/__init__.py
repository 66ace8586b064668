"""Discrete fractional calculus on unit-step isolated time scales.

Fractional sums and the Riemann-Liouville / Caputo / two-parameter
interpolating difference operators, discrete Mittag-Leffler functions,
the delta Laplace transform, explicit solvers for fractional initial
value problems, and Gronwall / Ulam stability machinery -- every identity
the library relies on is numerically checkable on desk-scale grids via
:mod:`hilfer_dfc.verification` or the ``hilfer-dfc`` command line tool.

The package namespace is lazy (PEP 562): ``import hilfer_dfc`` loads no
submodule.  The six modules below are listed in dependency order, and the
first read of a public name imports them one at a time in that order,
binding each one's public names here, and stops at the module that
defines the name: ``Grid`` loads ``grid`` alone, ``fractional_sum_fn``
``grid`` and ``operators``, ``laplace_of_hilfer_check`` those and
``transforms``, and a solver or stability name all six.  ``__all__``,
``dir()`` and a star import load all six, so a command line call or an
operator-only caller pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: in dependency order; each module's __all__ is its public surface and the
#: package's is their union
_MODULES = ("grid", "operators", "transforms", "mittag_leffler", "solvers", "stability")
#: read as attributes, these import only themselves (``from hilfer_dfc import cli``)
_SUBMODULES = (*_MODULES, "verification", "cli")


def _load(stop: str | None = None) -> None:
    """Import the modules in order and bind their public names here, up to
    the one whose ``__all__`` has ``stop``; a pass through all six also sets ``__all__``."""
    if "__all__" in globals():
        return
    names = ["__version__"]
    for module in (import_module(f"{__name__}.{name}") for name in _MODULES):
        globals().update((name, getattr(module, name)) for name in module.__all__)
        if stop in module.__all__:
            return
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    _load(name)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
