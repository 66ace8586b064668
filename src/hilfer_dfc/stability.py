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

Ulam experiments solve the exact system and a perturbed one by one
route, so nothing but the perturbation separates them, and compare the
deviation |u - v| with one pointwise envelope on the solution grid:

* initial-value perturbations (zeta -> zeta_n), both systems through
  :func:`solve`: |zeta - zeta_n| E_[mu,eta](K, x+eta-a-1);
* residual perturbations (|residual| <= eps), both systems stepped on
  the Volterra engine with the residual subtracted from the right-hand
  side's per-step g (a zero one for the exact system):
  eps C, with C = sup_x (E_[mu](K, x-a) - 1)/K the Gronwall iteration
  of the kernel's running sum;
* the Rassias variant, |residual(y)| <= eps psi(y - 1 + nu) at the
  equation point y: eps C psi(x) sup_y psi(y - 1 + nu) / min_x psi(x).

Each envelope's Mittag-Leffler values are one :func:`ml_lattice`
transform.  The pointwise verdict compares the deviation with the
envelope at every point, the sup-norm one its maximum with the
envelope's constant.

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
    _require_finite,
    falling_factorial,
)
from .mittag_leffler import MlParams, ml_lattice
from .operators import causal_convolve, sum_kernel
from .solvers import (
    IvpSpec,
    Linear,
    NonFiniteError,
    NonHomogeneous,
    Nonlinear,
    Solution,
    _stepped,
    _summation_map,
    _volterra,
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
    _require_finite(a=a, T=T, mu=mu)
    span = T - a
    steps = round(span)
    if steps < 1 or abs(span - steps) > 1e-9:
        raise ValueError("T must be a positive integer number of steps past a")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return math.gamma(mu + 1.0) / falling_factorial(T - a - 1.0 + mu, mu)


def _require_constant(name: str, value: float) -> None:
    """A Lipschitz or growth constant, or a perturbation size, is a finite
    nonnegative real."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative: got {value!r}")


def existence_report(a: float, T: float, mu: float, l_star: float) -> BoundReport:
    """Existence holds when the growth constant satisfies l_star <= bound."""
    bound = existence_bound(a, T, mu)
    _require_constant("l_star", l_star)
    return BoundReport(bound, l_star, l_star <= bound, strict=False)


def uniqueness_report(a: float, T: float, mu: float, k: float) -> BoundReport:
    """Uniqueness/contraction requires the strict inequality k < bound."""
    bound = existence_bound(a, T, mu)
    _require_constant("k", k)
    return BoundReport(bound, k, k < bound, strict=True)


def verify_contraction(
    spec: IvpSpec,
    k: float,
    *,
    trials: int = 8,
    rng: np.random.Generator | None = None,
) -> ContractionReport:
    """Threshold comparison plus ``trials`` >= 1 random-pair contraction measurements.

    For trajectory pairs u, v the fixed-point map must satisfy
    ||A u - A v|| <= (k / bound) ||u - v||, bound the uniqueness threshold
    Gamma(mu+1) / (T-a-1+mu)^[mu], whenever k is a valid Lipschitz
    constant for the right-hand side.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1: got {trials!r}")
    report = uniqueness_report(spec.a, spec.horizon, spec.order.mu, k)
    factor = k / report.bound
    rng = rng or np.random.default_rng(0)
    n_pts = spec.steps + 1
    summation_map = _summation_map(spec, n_pts)
    worst = 0.0
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, n_pts)
        v = rng.uniform(-1.0, 1.0, n_pts)
        gap = float(np.max(np.abs(u - v)))
        if gap == 0.0:
            continue
        worst = max(worst, float(np.max(np.abs(summation_map(u) - summation_map(v)))) / gap)
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
    out = np.zeros(n)
    if n:
        out[1:] = causal_convolve(sum_kernel(mu, n - 1), v.values[: n - 1] * phi.values[: n - 1])
    return GridFn._adopt(Grid(a, n), out)


def _gronwall_solve(
    u_a: float, v: GridFn, mu: float, eta: float, n_pts: int
) -> np.ndarray:
    """The series at the first n_pts points: w = u_a c_eta + E_v w, stepped.

    Values past the float range read as inf.
    """
    _require_finite(u_a=u_a)
    if n_pts == 0:
        return np.empty(0)
    if not np.all(np.abs(v.values[:n_pts]) < 1.0):
        raise ValueError("the comparison series requires |v| < 1 on the grid")
    w = _volterra(mu, eta, u_a, n_pts - 1, (-v.values[: n_pts - 1]).tolist())
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
    series = _gronwall_solve(u_a, v, mu, eta, n_pts)  # validates u_a and v first
    uv = u.values[:n_pts]
    rhs = u_a * sum_kernel(eta, n_pts) + ev_operator(v, u, mu, a).values
    hypothesis_ok = uv <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs))
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


def _estimate_lipschitz(rhs: Nonlinear, a: float, count: int, u_range: tuple[float, float]) -> float:
    """Steepest slope in u of the right-hand side between neighbouring
    levels of 41 values spanning u_range, at ``count`` points from a.
    A nan right-hand side raises NonFiniteError, an infinite one or an
    infinite slope OverflowError."""
    lo, hi = u_range
    us = np.linspace(lo, hi, 41)
    gs = np.array([rhs.on_grid(np.full(count, u), a) for u in us])
    if np.isnan(gs).any():
        raise NonFiniteError("right-hand side is nan on the sampled range of u")
    with np.errstate(over="ignore", invalid="ignore"):
        k = float(np.max(np.abs(np.diff(gs, axis=0) / np.diff(us)[:, None])))
    if not math.isfinite(k):
        raise OverflowError(f"right-hand side overflows on the sampled range of u, {lo!r} to {hi!r}")
    return k


def _psi_at(psi: Callable[[float], float], points: list[float]) -> np.ndarray:
    """psi at each point, where it must be finite and positive."""
    vals = np.array([psi(t) for t in points], dtype=float)
    bad = np.flatnonzero(~((vals > 0.0) & (vals < math.inf)))
    if bad.size:
        t = points[bad[0]]
        raise ValueError(f"psi must be finite and positive: psi({t!r}) = {float(vals[bad[0]])!r}")
    return vals


def ulam_experiment(
    spec: IvpSpec,
    k: float | None = None,
    *,
    epsilon: float = 0.0,
    perturbation: GridFn | None = None,
    zeta_n: float | None = None,
    psi: Callable[[float], float] | None = None,
) -> StabilityReport:
    """Solve the exact and a perturbed system and certify the deviation.

    Exactly one of ``zeta_n`` (perturbed initial value) or
    ``perturbation`` (explicit residual function on the grid based at
    a+1-mu, with |residual| <= epsilon, or <= epsilon*psi(y - 1 + nu) at
    the equation point y when psi is given) must be supplied.  Both
    systems go through one route: :func:`solve` for an initial
    perturbation; for a residual one, the Volterra engine stepping the
    right-hand side less the perturbation (a system whose defining-equation
    residual is the perturbation) and less zero.

    Every kind builds one pointwise envelope on {a, ..., a+steps}:
    epsilon E_[mu,eta](K, n+eta-1) for the initial kind, epsilon C for the
    residual kind and epsilon C psi(a+n) for the Rassias variant, with C
    the report's ``constant``.  ``pointwise_ok`` compares |u - v| with the
    envelope at every point; ``verdict`` is the sup-norm comparison
    deviation <= epsilon * constant, or the pointwise one when psi is
    given.

    When ``k`` is omitted it is estimated from sampled slopes of the
    right-hand side and the report records the estimate.
    """
    if (zeta_n is None) == (perturbation is None):
        raise ValueError("supply exactly one of zeta_n or perturbation")
    _require_constant("epsilon", epsilon)
    mu, eta = spec.order.mu, spec.order.eta
    if zeta_n is not None:
        exact, perturbed = solve(spec), solve(replace(spec, zeta=zeta_n))
    else:
        base = spec.a + 1.0 - mu
        if abs(perturbation.base - base) > 1e-9 or perturbation.count < spec.steps:
            raise CoverageError(f"residual must cover {spec.steps} points based at {base!r}")
        step = spec.rhs._stepper(spec.a)

        def stepped(r: list[float]) -> Solution:
            return _stepped(spec, lambda j, u: step(j, u) - r[j], "nonlinear-stepping")

        exact = stepped([0.0] * spec.steps)
        perturbed = stepped(perturbation.values[: spec.steps].tolist())

    if k is None:
        if isinstance(spec.rhs, (Linear, NonHomogeneous)):
            k_val, k_source = abs(spec.rhs.lam), "derived"
        else:
            lo = float(np.min(exact.values.values))
            hi = float(np.max(exact.values.values))
            pad = 0.25 * (hi - lo) + 1e-3
            k_val = _estimate_lipschitz(spec.rhs, spec.a, spec.steps, (lo - pad, hi + pad))
            k_source = "estimated"
    else:
        _require_constant("k", k)
        k_val, k_source = float(k), "asserted"

    applies = k_val < existence_bound(spec.a, spec.horizon, mu)
    lam = min(k_val, 1.0 - 1e-12)
    psi_vals = None
    if zeta_n is not None:
        kind, eps_eff = "initial", abs(spec.zeta - zeta_n)
        shape = ml_lattice(MlParams(mu=mu, eta=eta, lam=lam), spec.steps + 1)
        constant = float(np.max(shape))
    else:
        kind, eps_eff = "residual", epsilon
        # psi's argument at the equation point y = a+1-mu+j is y - 1 + nu
        args = spec.a + 1.0 - mu + np.arange(spec.steps) - 1.0 + spec.order.nu
        weight = np.ones(spec.steps) if psi is None else _psi_at(psi, args.tolist())
        size = np.abs(perturbation.values[: spec.steps])
        if np.any(size > epsilon * weight * (1.0 + 1e-12) + 1e-300):
            raise ValueError("perturbation exceeds its stated envelope")
        # (E_[mu](K, n) - 1)/K = E_[mu,mu+1](K, n-1+mu) term by term, so
        # the growth needs no subtraction and K = 0 no special case
        constant = float(np.max(ml_lattice(MlParams(mu=mu, eta=mu + 1.0, lam=lam), spec.steps)))
        shape = np.full(spec.steps + 1, constant)
        if psi is not None:
            psi_vals = _psi_at(psi, [spec.a + n for n in range(spec.steps + 1)])
            constant *= float(np.max(weight)) / float(np.min(psi_vals))
            shape = psi_vals * constant

    n_common = min(exact.values.count, perturbed.values.count)
    gap = np.abs(exact.values.values[:n_common] - perturbed.values.values[:n_common])
    deviation = float(np.max(gap)) if n_common else math.inf
    slack = 1.0 + 1e-9
    pointwise = bool(np.all(gap <= eps_eff * shape[:n_common] * slack + 1e-300))
    verdict = pointwise if psi_vals is not None else deviation <= eps_eff * constant * slack

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
