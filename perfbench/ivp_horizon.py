"""ivp-horizon: seeded long-horizon IVPs through every solver route.

Each seeded IVP (steps up to 2000, lam in (-1, 1)) is solved by all four
routes on the same draws; one op is one route on one IVP, followed by
``defining_equation_residual`` and ``initial_condition_value``:

* ``linear``: ``solve_linear`` on ``Linear(lam)``;
* ``linear_series``: ``solve_linear_series`` on the same problem;
* ``nonlinear``: ``solve_nonlinear`` with g(w, u) = -lam u - f(w+1-mu),
  the forced problem stepped forward;
* ``nonhomogeneous``: ``solve_nonhomogeneous`` on ``NonHomogeneous(lam, f)``,
  the forced problem in closed form.

Every other IVP also runs a stability certificate op (``gronwall_check``,
``ulam_experiment``, ``verify_contraction``) on its first
``STABILITY_STEPS`` steps with ``|lam|``.

References: a 50-digit mpmath trajectory up to ``reference.MP_MAX_STEPS``,
beyond that an extended-precision forward recursion written here (numpy
longdouble dot products, no library code).  Residuals are scaled by
``|D|(|u|) + |g|`` (see ``_relative_residual``) so they keep meaning at
long horizons.
"""

from __future__ import annotations

import math

import numpy as np

import hilfer_dfc as H
import reference as R
from common import TOL, Op, Outcome, kernel_weights, log_range, scaled_error, spread_order, stratified
from yardstick import INTERP

IVPS = 12
STEPS_LO, STEPS_HI = 20, 2000
STABILITY_STEPS = 120
ROUTES = ("linear", "nonlinear", "linear_series", "nonhomogeneous")
FORCED = {"nonlinear", "nonhomogeneous"}
SERIES = {"linear_series", "nonhomogeneous"}
TRACE_OPS = 27  # the first half of a cycle


def _solver(route):
    # looked up at call time so a traced run sees the wrapped names
    return {
        "linear": H.solve_linear,
        "nonlinear": H.solve_nonlinear,
        "linear_series": H.solve_linear_series,
        "nonhomogeneous": H.solve_nonhomogeneous,
    }[route]


def _longdouble_trajectory(mu, eta, zeta, lam, steps, forcing):
    """Forward recursion of the summation equation in extended precision."""
    ld = np.longdouble
    k = np.ones(steps + 1, dtype=ld)
    c = np.ones(steps + 1, dtype=ld)
    for lag in range(1, steps + 1):
        k[lag] = k[lag - 1] * (lag - 1 + ld(mu)) / lag
        c[lag] = c[lag - 1] * (lag - 1 + ld(eta)) / lag
    f = np.zeros(steps, dtype=ld) if forcing is None else forcing.astype(ld)
    u = np.empty(steps + 1, dtype=ld)
    g = np.empty(steps, dtype=ld)
    u[0] = zeta
    overflow_at = None
    for n in range(1, steps + 1):
        g[n - 1] = -ld(lam) * u[n - 1] - f[n - 1]
        value = ld(zeta) * c[n] - np.dot(k[n - 1 :: -1], g[:n])
        if not np.isfinite(value) or abs(value) > 1e300:
            overflow_at = n
            break
        u[n] = value
    m = n if overflow_at is not None else steps + 1
    scale = abs(zeta) * c[:m].astype(float)
    scale[1:] += np.convolve(k[: m - 1].astype(float), np.abs(g[: m - 1].astype(float)))[: m - 1]
    return u[:m].astype(float), scale, overflow_at


class Ivp:
    """One seeded IVP, its four route specs and their references."""

    def __init__(self, slot, steps, lam, mu, nu, a, zeta, forcing):
        self.slot, self.steps, self.lam = slot, steps, lam
        self.a, self.zeta, self.forcing = a, zeta, forcing
        self.order = H.HilferOrder(mu, nu)
        base = a + 1.0 - mu
        f_fn = H.GridFn(H.Grid(base, steps), forcing)
        fvals = [float(x) for x in forcing]

        def g(w, u, lam=lam, a=a):
            return -lam * u - fvals[round(w - a)]

        def spec(rhs):
            return H.IvpSpec(a, steps, self.order, zeta, rhs)

        self.specs = {
            "linear": spec(H.Linear(lam)),
            "linear_series": spec(H.Linear(lam)),
            "nonlinear": spec(H.Nonlinear(g)),
            "nonhomogeneous": spec(H.NonHomogeneous(lam, f_fn)),
        }
        self.refs: dict[bool, tuple] = {}

    def prepare(self) -> None:
        mu, eta = self.order.mu, self.order.eta
        for forced in (False, True):
            f = self.forcing if forced else None
            if self.steps <= R.MP_MAX_STEPS:
                self.refs[forced] = R.trajectory(mu, eta, self.zeta, self.lam, self.steps, forcing=f)
            else:
                self.refs[forced] = _longdouble_trajectory(mu, eta, self.zeta, self.lam, self.steps, f)


def _run_route(spec, route):
    sol = _solver(route)(spec)
    return sol, H.defining_equation_residual(sol, spec), H.initial_condition_value(sol, spec)


def _check_route(ivp: Ivp, route: str, out) -> Outcome:
    o = Outcome()
    # ROADMAP 4a: the series routes lose accuracy for negative lam
    cancel = "4a" if route in SERIES and ivp.lam < 0 else None
    if isinstance(out, Exception):
        name = type(out).__name__
        o.fail(f"{route}:{name}", "4b" if name == "SeriesConvergenceError" else None)
        return o
    sol, res, icv = out
    u = sol.values.values
    ref, scale, ref_ov = ivp.refs[route in FORCED]
    ov = sol.meta.overflow_at
    if not np.all(np.isfinite(u)):
        o.fail(f"{route}:non-finite")
    if ov is not None and ref_ov is None:
        # a non-finite value reported as overflow (4c), or series garbage
        o.fail(f"{route}:false-overflow", cancel or "4c")
    elif ov is None and ref_ov is not None:
        o.fail(f"{route}:missed-overflow")
    elif ov != ref_ov:
        o.fail(f"{route}:overflow-index")
    o.error(scaled_error(u, ref, scale), TOL, f"{route}:error", cancel)

    r = res.values
    m = len(r)
    g = -ivp.lam * u[:m]
    if route in FORCED:
        g = g - ivp.forcing[:m]
    o.error(_relative_residual(r, u, g, ivp.order), TOL, f"{route}:residual", cancel)
    o.error(abs(icv - ivp.zeta) / abs(ivp.zeta), TOL, f"{route}:initial-condition", cancel)
    return o


def _relative_residual(r, u, g, order) -> float:
    """max |residual| / (|D|(|u|) + |g|).

    |D|(|u|) is the composed difference applied with every term made
    nonnegative: it bounds |D u| and is the size of what the operator
    adds up, so the ratio keeps its meaning at long horizons and when u
    is close to the operator's kernel (lam near 0), where |D u| itself
    vanishes.
    """
    m = len(r)
    if m == 0:
        return 0.0
    n = len(u)
    inner = np.convolve(kernel_weights(order.inner_sum_order, n), np.abs(u))[:n]
    spread = inner[1:] + inner[:-1]
    size = np.convolve(kernel_weights(order.outer_sum_order, n - 1), spread)[:m]
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(r) / np.maximum(size + np.abs(g), 1e-300)
    return float(np.max(rel)) if np.all(np.isfinite(rel)) else math.inf


def _run_stability(ivp: Ivp, steps: int, seed: int):
    k = abs(ivp.lam)
    spec = H.IvpSpec(ivp.a, steps, ivp.order, ivp.zeta, H.Linear(k))
    sol = H.solve_linear(spec)
    v = H.GridFn.constant(H.Grid(ivp.a, steps + 1), k)
    gron = H.gronwall_check(sol.values, ivp.zeta, v, ivp.order)
    ulam = H.ulam_experiment(spec, k, zeta_n=ivp.zeta * 1.001)
    contraction = H.verify_contraction(spec, k, trials=4, rng=np.random.default_rng(seed))
    return sol, gron, ulam, contraction


def _check_stability(out) -> Outcome:
    o = Outcome()
    if isinstance(out, Exception):
        o.fail(f"stability:{type(out).__name__}")
        return o
    sol, gron, ulam, contraction = out
    if not gron.all_ok:
        o.fail("stability:gronwall")
    # the Gronwall series of an exact solution reproduces it (equality case)
    u = sol.values.values
    o.error(scaled_error(gron.series, u, np.abs(u)), TOL, "stability:gronwall-series")
    if ulam.certificate_applies and not (ulam.verdict and ulam.pointwise_ok):
        o.fail("stability:ulam")
    if not contraction.empirical_ok:
        o.fail("stability:contraction")
    return o


class IvpHorizon:
    name = "ivp-horizon"
    yardsticks = (INTERP,)  # the stepping and the series are interpreter-bound
    trace_ops = TRACE_OPS
    tail_percentile = 90  # ten or more samples above it in a 30 s run

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        # Every draw is stratified: slot i always covers the same part of
        # each range and the seed jitters within a tenth of it.  Series
        # cost and failure depend on (steps, lam, mu) together, so this is
        # what keeps the work and the failure share of a run seed-independent.
        def draw(strata, count=IVPS):
            return stratified(rng, strata, count, width=0.1)

        steps = log_range(STEPS_HI, STEPS_LO, draw(spread_order(IVPS)))
        lam = -1.0 + 2.0 * draw([(5 * i + 2) % IVPS for i in range(IVPS)])
        mu = 0.15 + 0.75 * draw([(7 * i + 3) % IVPS for i in range(IVPS)])
        nu_mid = draw([1 if i % 4 == 2 else 2 for i in range(IVPS)], 4)
        self.ivps = []
        for i in range(IVPS):
            n = max(1, int(round(steps[i])))
            nu = (0.0, 1.0, float(nu_mid[i]), float(nu_mid[i]))[i % 4]  # edges included
            phase, omega, amp = rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 1.0), rng.uniform(0.05, 0.5)
            forcing = amp * np.cos(omega * np.arange(n) + phase)
            self.ivps.append(
                Ivp(
                    i,
                    n,
                    float(np.clip(lam[i], -0.995, 0.995)),
                    float(mu[i]),
                    nu,
                    float(rng.choice([0.0, 0.3, 2.5])),
                    float(rng.uniform(0.5, 2.0)),
                    forcing,
                )
            )
        self.seed = seed

    def cycle(self) -> list[Op]:
        ops = []
        for ivp in self.ivps:
            for route in ROUTES:
                spec = ivp.specs[route]
                ops.append(
                    Op(
                        len(ops),
                        route,
                        lambda spec=spec, route=route: _run_route(spec, route),
                        lambda out, ivp=ivp, route=route: _check_route(ivp, route, out),
                    )
                )
            if ivp.slot % 2 == 0:
                m = min(ivp.steps, STABILITY_STEPS)
                seed = self.seed * 1000 + ivp.slot
                ops.append(
                    Op(
                        len(ops),
                        "stability",
                        lambda ivp=ivp, m=m, seed=seed: _run_stability(ivp, m, seed),
                        _check_stability,
                    )
                )
        return ops

    def prepare(self, ops: list[Op]) -> None:
        for ivp in self.ivps:
            ivp.prepare()

    def close(self) -> None:
        pass
