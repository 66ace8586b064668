"""Discrete fractional calculus on unit-step isolated time scales.

Fractional sums and the Riemann-Liouville / Caputo / two-parameter
interpolating difference operators, discrete Mittag-Leffler functions,
the delta Laplace transform, explicit solvers for fractional initial
value problems, and Gronwall / Ulam stability machinery -- every identity
the library relies on is numerically checkable on desk-scale grids via
:mod:`hilfer_dfc.verification` or the ``hilfer-dfc`` command line tool.
"""

import logging

from .grid import (
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
    OffGridError,
    SingularGammaError,
    delta_sum,
    falling_factorial,
    falling_factorial_sign_logmag,
    jump_backward,
    jump_forward,
    taylor_monomial,
)
from .mittag_leffler import (
    MlEvaluation,
    MlParams,
    SeriesConvergenceError,
    SeriesCtl,
    ml_bold,
    ml_eval,
    ml_lattice,
    ml_plain,
    pochhammer,
)
from .operators import (
    causal_convolve,
    caputo_difference,
    caputo_difference_fn,
    forward_difference_fn,
    fractional_sum,
    fractional_sum_fn,
    hilfer_difference,
    hilfer_difference_fn,
    rl_difference,
    rl_difference_fn,
    sum_kernel,
)
from .solvers import (
    IvpSpec,
    Linear,
    NonFiniteError,
    NonHomogeneous,
    Nonlinear,
    Solution,
    SolverMeta,
    apply_summation_operator,
    defining_equation_residual,
    initial_condition_value,
    residual_scale,
    solve,
    solve_linear,
    solve_linear_series,
    solve_nonhomogeneous,
    solve_nonlinear,
)
from .stability import (
    BoundReport,
    ContractionReport,
    GronwallCheck,
    StabilityReport,
    ev_operator,
    existence_bound,
    existence_report,
    gronwall_check,
    gronwall_series,
    ulam_experiment,
    uniqueness_report,
    verify_contraction,
)
from .transforms import (
    LaplaceCtl,
    LaplaceResult,
    RegressivityError,
    TransformDomainError,
    TruncationError,
    delta_exp,
    delta_laplace,
    laplace_base_shift_check,
    laplace_of_fractional_sum_check,
    laplace_of_hilfer_check,
    laplace_of_integer_difference_check,
)

__version__ = "0.1.0"

# silent unless the application configures logging (e.g. DEBUG records
# of the convolution path that ran)
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # grid
    "Grid",
    "GridFn",
    "HilferOrder",
    "falling_factorial",
    "falling_factorial_sign_logmag",
    "taylor_monomial",
    "delta_sum",
    "jump_forward",
    "jump_backward",
    "OffGridError",
    "CoverageError",
    "SingularGammaError",
    # operators
    "causal_convolve",
    "sum_kernel",
    "fractional_sum",
    "fractional_sum_fn",
    "forward_difference_fn",
    "rl_difference",
    "rl_difference_fn",
    "caputo_difference",
    "caputo_difference_fn",
    "hilfer_difference",
    "hilfer_difference_fn",
    # mittag-leffler
    "SeriesCtl",
    "MlParams",
    "MlEvaluation",
    "SeriesConvergenceError",
    "pochhammer",
    "ml_eval",
    "ml_lattice",
    "ml_plain",
    "ml_bold",
    # transforms
    "LaplaceCtl",
    "LaplaceResult",
    "RegressivityError",
    "TransformDomainError",
    "TruncationError",
    "delta_exp",
    "delta_laplace",
    "laplace_of_fractional_sum_check",
    "laplace_of_integer_difference_check",
    "laplace_of_hilfer_check",
    "laplace_base_shift_check",
    # solvers
    "Linear",
    "Nonlinear",
    "NonHomogeneous",
    "IvpSpec",
    "SolverMeta",
    "Solution",
    "NonFiniteError",
    "solve",
    "solve_linear",
    "solve_linear_series",
    "solve_nonlinear",
    "solve_nonhomogeneous",
    "apply_summation_operator",
    "defining_equation_residual",
    "residual_scale",
    "initial_condition_value",
    # stability
    "BoundReport",
    "ContractionReport",
    "StabilityReport",
    "GronwallCheck",
    "existence_bound",
    "existence_report",
    "uniqueness_report",
    "verify_contraction",
    "ev_operator",
    "gronwall_series",
    "gronwall_check",
    "ulam_experiment",
]
