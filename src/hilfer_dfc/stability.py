"""Existence/uniqueness bounds, discrete Gronwall machinery, Ulam experiments.

The fixed-point map of the initial value problem is a self-map (and a
contraction) when the Lipschitz-type constant of the right-hand side
stays below Gamma(mu+1) / (T-a-1+mu)^[mu]; :func:`existence_bound`
computes that threshold and :func:`verify_contraction` checks it both
ways (threshold comparison plus an empirical sup-norm ratio over random
trajectory pairs).

The Gronwall side sums the Neumann series of the kernel operator

    (E_v phi)(a+n) = sum_{j=1}^{n} h_{mu-1}(a+n, a+j-mu+1) v(a+j-1) phi(a+j-1)

on the monomial seed; any nonnegative u below the summation inequality is
below the resulting series, which for constant v is a discrete
Mittag-Leffler value.  The series terminates exactly after n+1 terms at
the n-th point because every pass of E_v starts from a zero value at the
base point, so its sum is the exact solution of the summation equality
w = u_a c_eta + E_v w.  That is one forward solve of the solvers'
Volterra engine with g = -v w, O(n^2) for every point at once;
:func:`ev_operator` stays as the single pass the series is built from.

Ulam experiments solve the exact system and a perturbed one, measure the
sup-norm deviation, and compare it to a certified constant:

* initial-value perturbations (zeta -> zeta_n): deviation is bounded
  pointwise by |zeta - zeta_n| E_[mu,eta](K, x+eta-a-1);
* residual perturbations (|residual| <= eps): deviation is bounded by
  eps * sup_x (E_[mu](K, x-a) - 1)/K, the Gronwall iteration of the
  kernel's running sum.

Both envelopes are Mittag-Leffler values on the solution lattice, one
:func:`ml_lattice` transform each.

Both certificates require K below the contraction threshold; otherwise
the experiment still runs but the certificate is marked non-applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grid import (
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
    falling_factorial,
)
from .mittag_leffler import MlParams, ml_lattice
from .operators import causal_convolve, sum_kernel
from .solvers import (
    IvpSpec,
    Linear,
    NonHomogeneous,
    Nonlinear,
    _volterra,
    apply_summation_operator,
    solve,
)

__all__ = [
    "BoundReport",
    "ContractionReport",
    "StabilityReport",
    "existence_bound",
    "existence_report",
    "uniqueness_report",
    "verify_contraction",
    "ev_operator",
    "gronwall_series",
    "GronwallCheck",
    "gronwall_check",
    "ulam_experiment",
]


# ---------------------------------------------------------------------------
# fixed-point bounds


@dataclass(frozen=True)
class BoundReport:
    """Comparison of a supplied constant against the fixed-point threshold.

    ``strict`` records whether satisfaction requires strict inequality
    (uniqueness/contraction) or allows equality (existence).
    """

    bound: float
    supplied: float
    satisfied: bool
    strict: bool


@dataclass(frozen=True)
class ContractionReport:
    """Threshold comparison plus an empirical operator-contraction check."""

    report: BoundReport
    empirical_ratio: float
    empirical_bound: float
    empirical_ok: bool


def existence_bound(a: float, T: float, mu: float) -> float:
    """Threshold Gamma(mu+1) / (T-a-1+mu)^[mu] for the horizon T = a+steps."""
    span = T - a
    steps = round(span)
    if steps < 1 or abs(span - steps) > 1e-9:
        raise ValueError("T must be a positive integer number of steps past a")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return math.gamma(mu + 1.0) / falling_factorial(T - a - 1.0 + mu, mu)


def existence_report(a: float, T: float, mu: float, l_star: float) -> BoundReport:
    """Existence holds when the growth constant satisfies l_star <= bound."""
    bound = existence_bound(a, T, mu)
    return BoundReport(bound, l_star, l_star <= bound, strict=False)


def uniqueness_report(a: float, T: float, mu: float, k: float) -> BoundReport:
    """Uniqueness/contraction requires the strict inequality k < bound."""
    bound = existence_bound(a, T, mu)
    return BoundReport(bound, k, k < bound, strict=True)


def verify_contraction(
    spec: IvpSpec,
    k: float,
    *,
    trials: int = 8,
    rng: np.random.Generator | None = None,
) -> ContractionReport:
    """Threshold comparison plus random-pair contraction measurements.

    For trajectory pairs u, v the fixed-point map must satisfy
    ||A u - A v|| <= (k (T-a-1+mu)^[mu] / Gamma(mu+1)) ||u - v|| whenever
    k is a valid Lipschitz constant for the right-hand side.
    """
    report = uniqueness_report(spec.a, spec.horizon, spec.order.mu, k)
    factor = k * falling_factorial(
        spec.horizon - spec.a - 1.0 + spec.order.mu, spec.order.mu
    ) / math.gamma(spec.order.mu + 1.0)
    rng = rng or np.random.default_rng(0)
    grid = Grid(spec.a, spec.steps + 1)
    worst = 0.0
    for _ in range(trials):
        u = GridFn(grid, rng.uniform(-1.0, 1.0, grid.count))
        v = GridFn(grid, rng.uniform(-1.0, 1.0, grid.count))
        gap = float(np.max(np.abs(u.values - v.values)))
        if gap == 0.0:
            continue
        au = apply_summation_operator(spec, u)
        av = apply_summation_operator(spec, v)
        worst = max(worst, float(np.max(np.abs(au.values - av.values))) / gap)
    ok = worst <= factor * (1.0 + 1e-12) + 1e-15
    return ContractionReport(report, worst, factor, ok)


# ---------------------------------------------------------------------------
# Gronwall machinery


def _order_params(order: HilferOrder | tuple[float, float]) -> tuple[float, float]:
    """Accept a HilferOrder or a raw (mu, eta) pair with mu in (0, 1].

    The raw form exists because the Gronwall series is meaningful at the
    integer edge mu = 1 (where it telescopes to the delta exponential),
    which HilferOrder deliberately excludes.
    """
    if isinstance(order, HilferOrder):
        return order.mu, order.eta
    mu, eta = order
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return float(mu), float(eta)


def ev_operator(v: GridFn, phi: GridFn, mu: float, a: float) -> GridFn:
    """One pass of the Gronwall kernel operator, on the base grid.

    Both v and phi live on the grid based at ``a``; the output does too,
    with value 0 at the base point (empty sum).  The value at a+n is the
    order-mu sum, based at a+1-mu, of the product v*phi sampled at the
    shifted arguments a..a+n-1.
    """
    if abs(v.base - a) > 1e-9 or abs(phi.base - a) > 1e-9:
        raise CoverageError(f"v and phi must be based at {a!r}")
    n = min(v.count, phi.count)
    if n == 0:
        return GridFn(Grid(a, 0), np.empty(0))
    product = v.values[: n - 1] * phi.values[: n - 1]
    out = np.zeros(n)
    out[1:] = causal_convolve(sum_kernel(mu, n - 1), product)
    return GridFn(Grid(a, n), out)


def _gronwall_solve(
    u_a: float, v: GridFn, mu: float, eta: float, n_pts: int
) -> np.ndarray:
    """The series at the first n_pts points: w = u_a c_eta + E_v w, stepped.

    Values past the float range read as inf.
    """
    if n_pts == 0:
        return np.empty(0)
    if float(np.max(np.abs(v.values[:n_pts]))) >= 1.0:
        raise ValueError("the comparison series requires |v| < 1 on the grid")
    vals = v.values[: n_pts - 1].tolist()
    w = _volterra(mu, eta, u_a, n_pts - 1, lambda j, y: -vals[j] * y)
    w[np.isnan(w)] = math.inf
    return w


def gronwall_series(
    u_a: float,
    v: GridFn,
    order: HilferOrder | tuple[float, float],
    x: float,
) -> float:
    """Value at x of the series solution of the summation equality.

    Sums the kernel-operator iterates of the monomial seed
    (x + eta - a - 1)^[eta-1] / Gamma(eta); at x = a+n the terms past the
    n-th vanish identically, so the sum is exact.  The |v| < 1 hypothesis
    of the comparison bound is validated here.
    """
    mu, eta = _order_params(order)
    n = Grid(v.base, v.count).index_of(x)
    return float(_gronwall_solve(u_a, v, mu, eta, n + 1)[n])


@dataclass(frozen=True)
class GronwallCheck:
    """Per-point outcome of the comparison bound.

    ``hypothesis_ok`` flags where u satisfies the summation inequality it
    claims to; ``verdict`` flags where u is below the series bound.
    """

    points: np.ndarray
    series: np.ndarray
    hypothesis_ok: np.ndarray
    verdict: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.hypothesis_ok) and np.all(self.verdict))


def gronwall_check(
    u: GridFn,
    u_a: float,
    v: GridFn,
    order: HilferOrder | tuple[float, float],
) -> GronwallCheck:
    """Check u(x) <= series bound pointwise, after validating the hypothesis.

    The hypothesis is the summation inequality
    u(a+n) <= u_a c_n + (kernel sum of v*u); both it and the verdict are
    evaluated with a relative slack of 1e-12 so exact solutions (equality)
    pass cleanly.
    """
    mu, eta = _order_params(order)
    a = v.base
    if abs(u.base - a) > 1e-9:
        raise CoverageError(f"u must be based at {a!r}")
    n_pts = min(u.count, v.count)
    uv = u.values[:n_pts]
    rhs = u_a * sum_kernel(eta, n_pts)
    if n_pts > 1:
        product = v.values[: n_pts - 1] * uv[:-1]
        rhs[1:] += causal_convolve(sum_kernel(mu, n_pts - 1), product)
    hypothesis_ok = uv <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs))
    series = _gronwall_solve(u_a, v, mu, eta, n_pts)
    verdict = uv <= series + 1e-12 * np.maximum(1.0, np.abs(series))
    return GronwallCheck(Grid(a, n_pts).points, series, hypothesis_ok, verdict)


# ---------------------------------------------------------------------------
# Ulam stability experiments


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one perturbation experiment.

    ``constant`` is the certified stability constant for the run's
    perturbation kind; the verdict compares the measured sup-norm
    deviation against epsilon * constant (weighted pointwise by psi for
    the Rassias variant).  ``certificate_applies`` records whether the
    Lipschitz constant cleared the contraction threshold; when it does
    not, the measurement still happens but the bound carries no warranty.
    """

    kind: str
    epsilon: float
    deviation: float
    constant: float
    verdict: bool
    pointwise_ok: bool
    certificate_applies: bool
    k: float
    k_source: str
    psi_values: np.ndarray | None = None


def _estimate_lipschitz(
    g: Callable[[float, float], float],
    points: np.ndarray,
    u_range: tuple[float, float],
    samples: int = 41,
) -> float:
    lo, hi = u_range
    if hi - lo < 1e-6:
        lo, hi = lo - 0.5, hi + 0.5
    us = np.linspace(lo, hi, samples)
    worst = 0.0
    for w in points:
        gs = np.array([g(float(w), float(u)) for u in us])
        worst = max(worst, float(np.max(np.abs(np.diff(gs) / np.diff(us)))))
    return worst


def _perturbed_spec(spec: IvpSpec, residual: GridFn) -> IvpSpec:
    """System whose defining-equation residual is exactly ``residual``.

    Any trajectory satisfying the residual inequality arises this way, so
    solving the modified system makes the inequality constructive.
    """
    mu = spec.order.mu
    base = spec.a + 1.0 - mu
    if abs(residual.base - base) > 1e-9 or residual.count < spec.steps:
        raise CoverageError(
            f"residual must cover {spec.steps} points based at {base!r}"
        )
    rhs = spec.rhs

    def g(w: float, u: float) -> float:
        # w = x + mu - 1 maps back to the equation point x = w + 1 - mu
        x = w + 1.0 - mu
        return rhs.g(w, u, x) - residual(x)

    return replace(spec, rhs=Nonlinear(g))


def ulam_experiment(
    spec: IvpSpec,
    k: float | None = None,
    *,
    epsilon: float = 0.0,
    perturbation: GridFn | None = None,
    zeta_n: float | None = None,
    psi: Callable[[float], float] | None = None,
    psi_arg_convention: str = "rho_plus_nu",
) -> StabilityReport:
    """Solve the exact and a perturbed system and certify the deviation.

    Exactly one of ``zeta_n`` (perturbed initial value) or
    ``perturbation`` (explicit residual function on the grid based at
    a+1-mu, with |residual| <= epsilon, or <= epsilon*psi(arg) pointwise
    when psi is given) must be supplied.

    ``psi`` weights the Rassias variant; its argument at the equation
    point y follows ``psi_arg_convention``: "rho_plus_nu" evaluates
    psi(y - 1 + nu) literally, "offset_from_base" evaluates psi(y - a).
    The verdict for that variant is the pointwise comparison
    |u - v|(y) <= epsilon psi(y) * constant.

    When ``k`` is omitted it is estimated from sampled slopes of the
    right-hand side and the report records the estimate.
    """
    if (zeta_n is None) == (perturbation is None):
        raise ValueError("supply exactly one of zeta_n or perturbation")
    mu, eta = spec.order.mu, spec.order.eta
    exact = solve(spec)

    if k is None:
        if isinstance(spec.rhs, (Linear, NonHomogeneous)):
            k_val, k_source = abs(spec.rhs.lam), "derived"
        else:
            pts = Grid(spec.a, spec.steps).points
            lo = float(np.min(exact.values.values))
            hi = float(np.max(exact.values.values))
            pad = 0.25 * (hi - lo) + 1e-3
            k_val = _estimate_lipschitz(
                spec.rhs.fn, pts, (lo - pad, hi + pad)
            )
            k_source = "estimated"
    else:
        k_val, k_source = float(k), "asserted"

    threshold = existence_bound(spec.a, spec.horizon, mu)
    applies = k_val < threshold

    if zeta_n is not None:
        kind = "initial"
        eps_eff = abs(spec.zeta - zeta_n)
        perturbed = solve(replace(spec, zeta=zeta_n))
        params = MlParams(mu=mu, eta=eta, lam=min(k_val, 1.0 - 1e-12))
        envelope = ml_lattice(params, spec.steps + 1)
        constant = float(np.max(envelope))
        psi_vals = None
    else:
        kind = "residual"
        assert perturbation is not None
        res_vals = np.abs(perturbation.values[: spec.steps])
        if psi is None:
            cap = epsilon * np.ones(spec.steps)
        else:
            if psi_arg_convention == "rho_plus_nu":
                args = [
                    (spec.a + 1.0 - mu + j) - 1.0 + spec.order.nu
                    for j in range(spec.steps)
                ]
            elif psi_arg_convention == "offset_from_base":
                args = [1.0 - mu + j for j in range(spec.steps)]
            else:
                raise ValueError(
                    f"unknown psi_arg_convention {psi_arg_convention!r}"
                )
            cap = epsilon * np.array([psi(arg) for arg in args])
        if np.any(res_vals > cap * (1.0 + 1e-12) + 1e-300):
            raise ValueError("perturbation exceeds its stated envelope")
        eps_eff = epsilon
        perturbed = solve(_perturbed_spec(spec, perturbation))
        # (E_[mu](K, n) - 1)/K = E_[mu,mu+1](K, n-1+mu) term by term, so
        # the growth needs no subtraction and K = 0 no special case
        params = MlParams(mu=mu, eta=mu + 1.0, lam=min(k_val, 1.0 - 1e-12))
        base_constant = float(np.max(ml_lattice(params, spec.steps)))
        if psi is None:
            constant = base_constant
            psi_vals = None
        else:
            psi_vals = np.array(
                [psi(spec.a + n) for n in range(spec.steps + 1)]
            )
            if np.any(psi_vals <= 0):
                raise ValueError("psi must be positive on the grid")
            psi_shift_sup = float(np.max(cap)) / epsilon if epsilon > 0 else 1.0
            constant = base_constant * psi_shift_sup / float(np.min(psi_vals))

    n_common = min(exact.values.count, perturbed.values.count)
    gap = np.abs(exact.values.values[:n_common] - perturbed.values.values[:n_common])
    deviation = float(np.max(gap)) if n_common else math.inf

    slack = 1.0 + 1e-9
    if kind == "initial":
        pointwise = bool(np.all(gap <= eps_eff * envelope[:n_common] * slack + 1e-300))
        verdict = deviation <= eps_eff * constant * slack
    elif psi_vals is not None:
        bound = eps_eff * psi_vals[:n_common] * constant
        pointwise = bool(np.all(gap <= bound * slack + 1e-300))
        verdict = pointwise
    else:
        verdict = deviation <= eps_eff * constant * slack
        pointwise = verdict

    return StabilityReport(
        kind=kind,
        epsilon=eps_eff,
        deviation=deviation,
        constant=constant,
        verdict=verdict,
        pointwise_ok=pointwise,
        certificate_applies=applies,
        k=k_val,
        k_source=k_source,
        psi_values=psi_vals,
    )
