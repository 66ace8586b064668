"""Discrete fractional calculus on unit-step isolated time scales.

Fractional sums and the Riemann-Liouville / Caputo / two-parameter
interpolating difference operators, discrete Mittag-Leffler functions,
the delta Laplace transform, explicit solvers for fractional initial
value problems, and Gronwall / Ulam stability machinery -- every identity
the library relies on is numerically checkable on desk-scale grids via
:mod:`hilfer_dfc.verification` or the ``hilfer-dfc`` command line tool.
"""

import logging

from . import grid, mittag_leffler, operators, solvers, stability, transforms
from .grid import *  # noqa: F403  -- each module's __all__ is its public surface
from .mittag_leffler import *  # noqa: F403
from .operators import *  # noqa: F403
from .solvers import *  # noqa: F403
from .stability import *  # noqa: F403
from .transforms import *  # noqa: F403

__version__ = "0.1.0"

# silent unless the application configures logging (e.g. DEBUG records
# of the convolution path that ran)
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    *(
        name
        for module in (grid, operators, mittag_leffler, transforms, solvers, stability)
        for name in module.__all__
    ),
]
