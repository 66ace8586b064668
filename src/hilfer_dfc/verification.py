"""Numerically checkable identity suite.

Every identity the library is built on is packaged as a named
check that evaluates both sides independently and reports the worst
observed error against its tolerance.  The suite is deterministic (fixed
seeds) and runs in seconds; the ``hilfer-dfc verify`` command and the
test suite both drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, GridFn, HilferOrder, _require_positive, falling_factorial, taylor_monomial
from .mittag_leffler import MlParams, ml_lattice
from .operators import (
    forward_difference_fn,
    fractional_sum,
    fractional_sum_fn,
    hilfer_difference_fn,
    rl_difference_fn,
    caputo_difference_fn,
    sum_kernel,
)
from .solvers import (
    IvpSpec,
    Linear,
    Nonlinear,
    defining_equation_residual,
    initial_condition_value,
    solve_linear,
    solve_linear_series,
    solve_nonlinear,
)
from .stability import existence_bound, gronwall_series, ulam_experiment
from .transforms import (
    LaplaceCtl,
    laplace_base_shift_check,
    laplace_of_fractional_sum_check,
    laplace_of_hilfer_check,
    laplace_of_integer_difference_check,
)

__all__ = ["CheckResult", "available_checks", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tol: float
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# individual checks: each takes y and returns its worst error, or its worst
# error and a detail string; names and tolerances live in _CHECKS only.  The
# worst error is folded with np.maximum, which keeps a nan (builtin max drops
# it and would pass the check)


def check_power_rule(y: float) -> float:
    """Summed monomial sum against its closed form."""
    rng = np.random.default_rng(101)
    a = 0.3
    worst = 0.0
    for _ in range(12):
        mu = rng.uniform(0.05, 0.95)
        nu = rng.uniform(0.0, 3.0)
        f = GridFn.from_callable(
            Grid(a + nu, 30), lambda t: falling_factorial(t - a, nu)
        )
        summed = fractional_sum_fn(f, mu)
        for j in range(summed.count):
            x = summed.base + j
            closed = (
                math.gamma(nu + 1.0)
                / math.gamma(mu + nu + 1.0)
                * falling_factorial(x - a, mu + nu)
            )
            got = float(summed.values[j])
            worst = np.maximum(worst, abs(got - closed) / max(1.0, abs(closed)))
    return worst


def _order_sweep(seed: int, a: float, count: int, *, vanish_at_base: bool = False):
    """Eight seeded draws of an order (mu in (0.1, 0.9), nu in (0, 1)) and an f
    uniform in (-1, 1) on ``count`` points from ``a``, optionally with f(a) = 0."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        order = HilferOrder(rng.uniform(0.1, 0.9), rng.uniform(0.0, 1.0))
        vals = rng.uniform(-1.0, 1.0, count)
        if vanish_at_base:
            vals[0] = 0.0
        yield order, GridFn(Grid(a, count), vals)


def check_composition(y: float) -> float:
    """Order-mu sum of the two-parameter difference against its collapsed form."""
    worst = 0.0
    for order, f in _order_sweep(102, 0.5, 24):
        lhs = fractional_sum_fn(hilfer_difference_fn(f, order), order.mu)
        inner = fractional_sum_fn(f, order.inner_sum_order)
        rhs = fractional_sum_fn(forward_difference_fn(inner), order.eta)
        worst = np.maximum(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    return worst


def check_composition_rl_route(y: float) -> float:
    """Same collapsed form reached through the order-eta difference."""
    worst = 0.0
    for order, f in _order_sweep(107, 0.5, 24):
        lhs = fractional_sum_fn(hilfer_difference_fn(f, order), order.mu)
        rhs = fractional_sum_fn(rl_difference_fn(f, order.eta), order.eta)
        worst = np.maximum(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    return worst


def check_composition_correction(y: float) -> float:
    """Difference-after-sum equals f minus the explicit monomial correction."""
    worst = 0.0
    for order, f in _order_sweep(103, 0.25, 22):
        lhs = hilfer_difference_fn(fractional_sum_fn(f, order.mu), order)
        c = order.outer_sum_order
        s = f.base + 1.0 - c
        initial = fractional_sum(f, 1.0 - c, s)
        for j in range(lhs.count):
            x = lhs.base + j  # = a + 1 + j
            rhs = f(x) - initial * taylor_monomial(c - 1.0, x, s)
            worst = np.maximum(worst, abs(float(lhs.values[j]) - rhs))
    return worst


def check_left_inverse(y: float) -> float:
    """With f vanishing at the base point the composition returns f."""
    worst = 0.0
    for order, f in _order_sweep(104, 0.25, 22, vanish_at_base=True):
        lhs = hilfer_difference_fn(fractional_sum_fn(f, order.mu), order)
        for j in range(lhs.count):
            worst = np.maximum(worst, abs(float(lhs.values[j]) - f(lhs.base + j)))
    return worst


_LAPLACE_CTL = LaplaceCtl(r=1.35, tol=1e-10)


def _laplace_f() -> GridFn:
    """A seeded f of exponential order 1.2 on 400 points."""
    rng = np.random.default_rng(105)
    phase = rng.uniform(0.0, 2 * math.pi)
    amp = rng.uniform(0.5, 1.5)
    vals = [amp * 1.2**k * (1.0 + 0.3 * math.sin(0.7 * k + phase)) for k in range(400)]
    return GridFn(Grid(0.0, 400), np.array(vals))


def check_laplace_fractional_sum(y: float) -> tuple[float, str]:
    f = _laplace_f()
    worst = 0.0
    for mu in (0.3, 0.5, 0.8):
        lhs, rhs = laplace_of_fractional_sum_check(f, mu, y, _LAPLACE_CTL)
        worst = np.maximum(worst, abs(lhs - rhs))
    return worst, f"y={y}"


def check_laplace_integer_difference(y: float) -> tuple[float, str]:
    f = _laplace_f()
    worst = 0.0
    for m in (1, 2):
        lhs, rhs = laplace_of_integer_difference_check(f, m, y, _LAPLACE_CTL)
        worst = np.maximum(worst, abs(lhs - rhs))
    lhs, rhs = laplace_base_shift_check(f, y, _LAPLACE_CTL)
    return np.maximum(worst, abs(lhs - rhs)), f"y={y}"


def check_laplace_hilfer(y: float) -> tuple[float, str]:
    f = _laplace_f()
    worst = 0.0
    for mu, nu in ((0.7, 0.5), (0.7, 0.0), (0.7, 1.0), (0.4, 0.25)):
        lhs, rhs = laplace_of_hilfer_check(f, HilferOrder(mu, nu), y, _LAPLACE_CTL)
        worst = np.maximum(worst, abs(lhs - rhs))
    return worst, f"y={y}"


def check_solver_cross_validation(y: float) -> float:
    worst = 0.0
    for lam in (0.05, 0.1, 0.3):
        for mu in (0.5, 0.8):
            for nu in (0.0, 0.25, 0.5, 0.75, 1.0):
                spec = IvpSpec(0.0, 30, HilferOrder(mu, nu), 1.0, Linear(lam))
                rec = solve_linear(spec).values.values
                ser = solve_linear_series(spec).values.values
                scale = np.maximum(1.0, np.abs(rec))
                worst = np.maximum(worst, float(np.max(np.abs(rec - ser) / scale)))
    return worst


def check_solver_residual(y: float) -> float:
    worst = 0.0
    for lam in (0.1, 0.3):
        for mu in (0.5, 0.8):
            for nu in (0.0, 0.5, 1.0):
                spec = IvpSpec(0.3, 25, HilferOrder(mu, nu), 1.0, Linear(lam))
                sol = solve_linear(spec)
                res = defining_equation_residual(sol, spec)
                worst = np.maximum(worst, float(np.max(np.abs(res.values))))
                worst = np.maximum(worst, abs(initial_condition_value(sol, spec) - spec.zeta))
    spec = IvpSpec(
        0.3, 9, HilferOrder(0.7, 0.5), 1.0, Nonlinear(lambda w, u: (w - 0.3) * u)
    )
    sol = solve_nonlinear(spec)
    res = defining_equation_residual(sol, spec)
    worst = np.maximum(worst, float(np.max(np.abs(res.values))))
    return worst


def check_endpoint_reduction(y: float) -> float:
    rng = np.random.default_rng(106)
    worst = 0.0
    for mu in (0.1, 0.5, 0.9):
        for _ in range(6):
            f = GridFn(Grid(0.0, 31), rng.uniform(-1.0, 1.0, 31))
            h0 = hilfer_difference_fn(f, HilferOrder(mu, 0.0))
            h1 = hilfer_difference_fn(f, HilferOrder(mu, 1.0))
            r = rl_difference_fn(f, mu)
            c = caputo_difference_fn(f, mu)
            worst = np.maximum(worst, float(np.max(np.abs(h0.values - r.values))))
            worst = np.maximum(worst, float(np.max(np.abs(h1.values - c.values))))
    return worst


def check_ml_reductions(y: float) -> float:
    # E^gamma_[1,gamma](lam, n + gamma - 1) = (gamma)_n / n! (1+lam)^n, the
    # coefficients of (1 - (1+lam) z)^-gamma; gamma = 1 is the binomial identity
    worst = 0.0
    for gamma in (1.0, 0.5, 1.7):
        for lam in (0.1, -0.1, 0.5, -0.5):
            got = ml_lattice(MlParams(mu=1.0, eta=gamma, gamma=gamma, lam=lam), 21)
            expect = sum_kernel(gamma, 21) * (1.0 + lam) ** np.arange(21)
            worst = np.maximum(worst, float(np.max(np.abs(got - expect) / np.maximum(1.0, np.abs(expect)))))
    return worst


def check_gronwall_reductions(y: float) -> float:
    worst = 0.0
    grid = Grid(0.0, 21)
    for const in (0.1, 0.5):
        v = GridFn.constant(grid, const)
        for n in range(grid.count):
            got = gronwall_series(1.0, v, (1.0, 1.0), float(n))
            expect = (1.0 + const) ** n
            worst = np.maximum(worst, abs(got - expect) / max(1.0, abs(expect)))
    order = HilferOrder(0.7, 0.5)
    for const in (0.05, 0.1, 0.15):
        v = GridFn.constant(grid, const)
        expect = ml_lattice(MlParams(mu=order.mu, eta=order.eta, lam=const), grid.count)
        for n in range(grid.count):
            got = gronwall_series(1.0, v, order, float(n))
            worst = np.maximum(worst, abs(got - expect[n]) / max(1.0, abs(expect[n])))
    return worst


def check_ulam_bound(y: float) -> float:
    k = 0.15
    spec = IvpSpec(
        0.3, 9, HilferOrder(0.7, 0.5), 1.0, Nonlinear(lambda w, u: k * u)
    )
    worst = 0.0
    for dz in (0.1, 0.01, 0.001):
        rep = ulam_experiment(spec, k, zeta_n=spec.zeta + dz)
        if not (rep.verdict and rep.pointwise_ok and rep.certificate_applies):
            worst = np.maximum(worst, 1.0)
        excess = rep.deviation - rep.epsilon * rep.constant
        worst = np.maximum(worst, max(excess, 0.0))
    return worst


def check_paper_constant(y: float) -> tuple[float, str]:
    got = existence_bound(0.3, 9.3, 0.7)
    return abs(got - 0.1974), f"value={got:.6f}"


# ---------------------------------------------------------------------------
# registry


#: name -> (check, tolerance), in report order
_CHECKS: dict[str, tuple[Callable[[float], float | tuple[float, str]], float]] = {
    "power-rule": (check_power_rule, 1e-10),
    "composition-sum-of-difference": (check_composition, 1e-9),
    "composition-rl-route": (check_composition_rl_route, 1e-9),
    "composition-correction-term": (check_composition_correction, 1e-9),
    "left-inverse": (check_left_inverse, 1e-9),
    "laplace-of-fractional-sum": (check_laplace_fractional_sum, 1e-8),
    "laplace-of-integer-difference": (check_laplace_integer_difference, 1e-8),
    "laplace-of-hilfer-difference": (check_laplace_hilfer, 1e-8),
    "solver-cross-validation": (check_solver_cross_validation, 1e-8),
    "solver-defining-equation-residual": (check_solver_residual, 1e-8),
    "endpoint-reduction": (check_endpoint_reduction, 1e-10),
    "ml-reductions": (check_ml_reductions, 1e-10),
    "gronwall-reductions": (check_gronwall_reductions, 1e-10),
    "ulam-initial-value-bound": (check_ulam_bound, 1e-12),
    "desk-scenario-threshold": (check_paper_constant, 5e-3),
}


def available_checks() -> list[str]:
    return list(_CHECKS)


def run_checks(
    only: str | None = None,
    *,
    tol_override: float | None = None,
    y: float = 2.0,
) -> list[CheckResult]:
    """Run the suite (or the subset whose name contains ``only``)."""
    if tol_override is not None:
        _require_positive(tol=tol_override)
    results = []
    for name, (fn, tol) in _CHECKS.items():
        if only is not None and only not in name:
            continue
        out = fn(y)
        worst, detail = out if isinstance(out, tuple) else (out, "")
        tol = tol_override if tol_override is not None else tol
        results.append(CheckResult(name, float(worst), tol, bool(worst < tol), detail))
    if not results:
        raise ValueError(f"no checks match {only!r}")
    return results
