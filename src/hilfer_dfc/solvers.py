"""Solvers for the two-parameter fractional initial value problem.

The problem on the grid {a, a+1, ..., a+steps} is

    D^{mu,nu}_a u(x) + g(x+mu-1, u(x+mu-1)) = 0   on the shifted grid
                                                  starting at a+1-mu,
    (order-(1-eta) sum of u)(a+1-eta) = zeta,

which is equivalent to the summation equation

    u(x) = zeta h_{eta-1}(x, a+1-eta)
           - sum_{tau = a+1-mu}^{x-mu} h_{mu-1}(x, tau+1) g(tau+mu-1, u(tau+mu-1)).

At x = a+n the sum only references u at a..a+n-1, so the stepping
solvers run one forward Volterra engine, y[n] = zeta c_eta[n] -
sum_{j<n} k_mu[n-1-j] g_j; the result is the exact fixed point of the
summation operator on the finite grid, no iteration needed.  The engine
steps in blocks of ``_BLOCK`` points, the near/far split of Hairer,
Lubich and Schlichte (1985, SIAM J. Sci. Stat. Comput. 6): at a block's
start one ``np.convolve`` gives every output of the block its sum over
the g values before the block (exact dot products), and each step adds
the terms from inside the block in plain floats.  The n = 0 value is
the monomial term's limit, u(a) = zeta, which anchors the recursion.
The engine takes a raw (mu, eta), so the Gronwall series (where mu = 1
is allowed) runs on it.  Each right-hand side has a method g(w, u, x):
g at w = x+mu-1 with u = u(w), where x is the equation point the
forcing is sampled at; and a method on_grid(u, a, mu) that gives g at
every point of u's base grid {a, a+1, ...} at once, bit for bit the
values of g.

For the linear right-hand side two independent evaluations are provided:
the forward recursion, and the closed-form discrete Mittag-Leffler
solution on the lattice, taken as the Taylor coefficients of its
generating function by one FFT (:func:`ml_lattice_solution`).  The
non-homogeneous closed form adds the forcing's Mittag-Leffler kernel sum
to the same generating function, so it is the same single transform.

The engine is sequential in n and O(steps^2) in multiply-adds, nearly
all of them in the block convolutions; the series solvers are
whole-array computations, O(steps log steps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul
from typing import Callable

import numpy as np

from .grid import CoverageError, Grid, GridFn, HilferOrder
from .mittag_leffler import MlParams, ml_lattice_solution
from .operators import (
    causal_convolve,
    fractional_sum,
    hilfer_difference_fn,
    sum_kernel,
)

__all__ = [
    "Linear",
    "Nonlinear",
    "NonHomogeneous",
    "IvpSpec",
    "SolverMeta",
    "Solution",
    "NonFiniteError",
    "solve_linear",
    "solve_linear_series",
    "solve_nonlinear",
    "solve_nonhomogeneous",
    "solve",
    "apply_summation_operator",
    "defining_equation_residual",
    "residual_scale",
    "initial_condition_value",
]

#: magnitude at which a trajectory is truncated instead of emitting inf
OVERFLOW_LIMIT = 1e300
#: points the Volterra engine steps per far-field convolution; of 8 to 48,
#: 16 was the fastest or tied at 200, 2000 and 20000 steps
_BLOCK = 16


class NonFiniteError(ArithmeticError):
    """A right-hand side returned nan at a finite trajectory value (not overflow)."""


@dataclass(frozen=True)
class Linear:
    """Right-hand side g(x, u) = -lam * u (pure relaxation/growth term)."""

    lam: float

    def g(self, w: float, u: float, x: float) -> float:
        return -self.lam * u

    def on_grid(self, u: np.ndarray, a: float, mu: float) -> np.ndarray:
        return -self.lam * u


@dataclass(frozen=True)
class Nonlinear:
    """General right-hand side g(x, u), supplied as the callable ``fn``."""

    fn: Callable[[float, float], float]

    def g(self, w: float, u: float, x: float) -> float:
        return self.fn(w, u)

    def on_grid(self, u: np.ndarray, a: float, mu: float) -> np.ndarray:
        return np.array([self.fn(a + j, v) for j, v in enumerate(u.tolist())], dtype=float)


@dataclass(frozen=True)
class NonHomogeneous:
    """g(x, u) = -lam*u - f, with the forcing f sampled on base a+1-mu."""

    lam: float
    forcing: GridFn

    def g(self, w: float, u: float, x: float) -> float:
        return -self.lam * u - self.forcing(x)

    def on_grid(self, u: np.ndarray, a: float, mu: float) -> np.ndarray:
        f = self.forcing.values[: len(u)]
        if len(f) < len(u):
            self.forcing(a + len(f) + 1.0 - mu)  # raises as g does there
        return -self.lam * u - f


@dataclass(frozen=True)
class IvpSpec:
    """Initial value problem data.

    ``zeta`` is the value of the order-(1-eta) sum of u at a+1-eta, which
    on a unit-step grid pins u(a) = zeta.  The horizon is T = a + steps.
    Series-based solvers additionally require |lam| < 1.
    """

    a: float
    steps: int
    order: HilferOrder
    zeta: float
    rhs: Linear | Nonlinear | NonHomogeneous

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if isinstance(self.rhs, NonHomogeneous):
            forcing = self.rhs.forcing
            expected_base = self.a + 1.0 - self.order.mu
            if abs(forcing.base - expected_base) > 1e-9:
                raise CoverageError(
                    f"forcing must be sampled on the grid based at "
                    f"{expected_base!r}, got base {forcing.base!r}"
                )
            if forcing.count < self.steps:
                raise CoverageError(
                    f"forcing must cover {self.steps} points, has {forcing.count}"
                )

    @property
    def horizon(self) -> float:
        return self.a + self.steps


@dataclass(frozen=True)
class SolverMeta:
    solver: str
    terms_used: int = 0
    overflow_at: int | None = None


@dataclass(frozen=True)
class Solution:
    """Trajectory on {a, ..., a+steps} (shorter if overflow truncated it)."""

    values: GridFn
    meta: SolverMeta

    def __call__(self, x: float) -> float:
        return self.values(x)


def _volterra(
    mu: float,
    eta: float,
    zeta: float,
    steps: int,
    g_at: Callable[[int, float], float],
) -> np.ndarray:
    """Forward Volterra engine: y[n] = zeta c_eta[n] - sum_j k_mu[n-1-j] g_j.

    ``g_at(j, y[j])`` is the right-hand side at base-grid index j
    (j = 0..steps-1); a nan from it raises NonFiniteError naming j.
    Stepping stops at the first value that is non-finite or above
    OVERFLOW_LIMIT; that value and all later ones read nan.  ``(mu, eta)``
    are raw, so the integer edge mu = 1 works.

    Outputs s+1..s+B of a block take their sum over g_0..g_{s-1} from one
    valid-mode convolution at the block's start; a step adds the terms
    g_s..g_{n-1} of its own block.  Steps make no numpy call: an inf or
    nan propagates silently through plain floats, without numpy warnings,
    and is caught by the range test.
    """
    zeta = float(zeta)
    c = sum_kernel(eta, steps + 1).tolist()
    k = sum_kernel(mu, steps)
    # near[m] = k[m], ..., k[0]: the lags from block offsets 0..m to offset m
    near = [k[m::-1].tolist() for m in range(min(_BLOCK, steps))]
    g = np.empty(steps)
    y = np.full(steps + 1, np.nan)
    done = [zeta]
    u = zeta
    for s in range(0, steps, _BLOCK):
        e = min(s + _BLOCK, steps)
        far = np.convolve(g[:s], k[1:e], "valid").tolist() if s else [0.0] * (e - s)
        block = []
        for m in range(e - s):
            gj = float(g_at(s + m, u))
            if gj != gj:
                raise NonFiniteError(f"right-hand side is nan at index {s + m} (u = {u!r})")
            block.append(gj)
            u = zeta * c[s + m + 1] - (far[m] + sum(map(mul, near[m], block)))
            if not -OVERFLOW_LIMIT <= u <= OVERFLOW_LIMIT:
                y[: len(done)] = done
                return y
            done.append(u)
        g[s:e] = block
    y[:] = done
    return y


def _truncated(spec: IvpSpec, y: np.ndarray, meta: SolverMeta) -> Solution:
    """Cut y before its first non-finite or overflowing value, if any."""
    bad = ~(np.abs(y) <= OVERFLOW_LIMIT)
    if bad.any():
        n = int(np.argmax(bad))
        y, meta = y[:n], replace(meta, overflow_at=n)
    return Solution(GridFn(Grid(spec.a, len(y)), y), meta)


def _stepped(spec: IvpSpec, solver_name: str) -> Solution:
    rhs, a, mu = spec.rhs, spec.a, spec.order.mu
    y = _volterra(
        mu,
        spec.order.eta,
        spec.zeta,
        spec.steps,
        lambda j, u: rhs.g(a + j, u, a + j + 1.0 - mu),
    )
    return _truncated(spec, y, SolverMeta(solver_name))


def solve_linear(spec: IvpSpec) -> Solution:
    """Exact forward recursion for the linear problem, O(steps^2) multiply-adds."""
    if not isinstance(spec.rhs, Linear):
        raise TypeError("solve_linear needs a Linear right-hand side")
    return _stepped(spec, "linear-recursion")


def solve_linear_series(spec: IvpSpec) -> Solution:
    """Closed-form series solution u(a+n) = zeta E_[mu,eta](lam, n+eta-1).

    Values agree with the forward recursion to roundoff of the term scale;
    ``terms_used`` counts the symbol samples the transform took.
    """
    if not isinstance(spec.rhs, Linear):
        raise TypeError("solve_linear_series needs a Linear right-hand side")
    params = MlParams(mu=spec.order.mu, eta=spec.order.eta, lam=spec.rhs.lam)
    y, samples = ml_lattice_solution(params, spec.steps + 1, spec.zeta)
    return _truncated(spec, y, SolverMeta("linear-series", samples))


def solve_nonlinear(spec: IvpSpec) -> Solution:
    """Explicit forward stepping for a general right-hand side."""
    if not isinstance(spec.rhs, Nonlinear):
        raise TypeError("solve_nonlinear needs a Nonlinear right-hand side")
    return _stepped(spec, "nonlinear-stepping")


def solve_nonhomogeneous(spec: IvpSpec) -> Solution:
    """Closed-form solution with forcing:

        u(a+n) = zeta E_[mu,eta](lam, n+eta-1)
                 + sum_{j=1}^{n} E_[mu,mu](lam, n-j+mu-1) f(a+j-mu).

    Both terms come from one transform of their generating function,
    zeta U(z) + z K(z) F(z) with F the forcing's (:func:`ml_lattice_solution`);
    ``terms_used`` counts the symbol samples it took.
    """
    if not isinstance(spec.rhs, NonHomogeneous):
        raise TypeError("solve_nonhomogeneous needs a NonHomogeneous right-hand side")
    params = MlParams(mu=spec.order.mu, eta=spec.order.eta, lam=spec.rhs.lam)
    forcing = spec.rhs.forcing.values[: spec.steps]
    y, samples = ml_lattice_solution(params, spec.steps + 1, spec.zeta, forcing)
    return _truncated(spec, y, SolverMeta("nonhomogeneous-series", samples))


def solve(spec: IvpSpec) -> Solution:
    """Dispatch on the right-hand side kind."""
    if isinstance(spec.rhs, Linear):
        return solve_linear(spec)
    if isinstance(spec.rhs, Nonlinear):
        return solve_nonlinear(spec)
    return solve_nonhomogeneous(spec)


def apply_summation_operator(spec: IvpSpec, u: GridFn) -> GridFn:
    """One application of the fixed-point map A to a trajectory u on {a,...}.

    (A u)(a+n) = zeta h_{eta-1}(a+n, a+1-eta) - (kernel sum of the g terms).
    Solutions are exactly the fixed points of A.
    """
    if abs(u.base - spec.a) > 1e-9:
        raise CoverageError(f"u must be based at {spec.a!r}")
    n_pts = u.count
    out = spec.zeta * sum_kernel(spec.order.eta, n_pts)
    g = spec.rhs.on_grid(u.values[: n_pts - 1], spec.a, spec.order.mu)
    out[1:] -= causal_convolve(sum_kernel(spec.order.mu, n_pts - 1), g)
    return GridFn(u.grid, out)


def defining_equation_residual(solution: Solution, spec: IvpSpec) -> GridFn:
    """Residual of the defining equation at every admissible point.

    Plugs the trajectory back through the composed difference operator:
    residual(x) = D^{mu,nu} u(x) + g(x+mu-1, u(x+mu-1)) on the grid based
    at a+1-mu.  This is the strongest whole-pipeline check: it exercises
    the operator composition, the summation-equation equivalence, and the
    solver together.
    """
    u = solution.values
    diff = hilfer_difference_fn(u, spec.order)
    g = spec.rhs.on_grid(u.values[: diff.count], spec.a, spec.order.mu)
    return GridFn(diff.grid, diff.values + g)


def residual_scale(solution: Solution, spec: IvpSpec) -> GridFn:
    """Size |D|(|u|) + |g| of the terms the defining-equation residual adds up.

    |D| is the composed difference with every term made nonnegative: the
    inner sum of |u|, neighbouring values added instead of differenced,
    then the outer sum.  It bounds |D u|, so residual / scale is a
    relative residual that keeps its meaning at long horizons and where u
    is close to the operator's kernel (|D u| itself vanishes there).
    Lives on the residual's grid, based at a+1-mu.
    """
    u, order = solution.values, spec.order
    n = u.count
    inner = causal_convolve(sum_kernel(order.inner_sum_order, n), np.abs(u.values))
    spread = inner[1:] + inner[:-1]
    size = causal_convolve(sum_kernel(order.outer_sum_order, n - 1), spread)
    g = spec.rhs.on_grid(u.values[: n - 1], spec.a, spec.order.mu)
    return GridFn(Grid(spec.a + 1.0 - order.mu, n - 1), size + np.abs(g))


def initial_condition_value(solution: Solution, spec: IvpSpec) -> float:
    """Order-(1-eta) sum of the trajectory at a+1-eta; must reproduce zeta.

    For eta = 1 the sum degenerates to the identity and this is u(a).
    """
    eta = spec.order.eta
    return fractional_sum(solution.values, 1.0 - eta, spec.a + 1.0 - eta)
