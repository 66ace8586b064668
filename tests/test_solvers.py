"""IVP solvers: hand-expanded values, cross-validation, residuals."""

import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ld_recursion, stratified_cases
from hilfer_dfc import (
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
    IvpSpec,
    Linear,
    MlParams,
    NonFiniteError,
    NonHomogeneous,
    Nonlinear,
    OffGridError,
    apply_summation_operator,
    defining_equation_residual,
    falling_factorial,
    gronwall_series,
    hilfer_difference_fn,
    initial_condition_value,
    ml_bold,
    ml_plain,
    residual_scale,
    solve,
    solve_linear,
    solve_linear_series,
    solve_nonhomogeneous,
    solve_nonlinear,
    sum_kernel,
    taylor_monomial,
)
from hilfer_dfc.solvers import _BLOCK


def linear_spec(a=0.0, steps=12, mu=0.8, nu=0.5, zeta=1.0, lam=0.1):
    return IvpSpec(a, steps, HilferOrder(mu, nu), zeta, Linear(lam))


class TestSpecValidation:
    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            IvpSpec(0.0, 0, HilferOrder(0.5, 0.5), 1.0, Linear(0.1))

    def test_forcing_base_checked(self):
        bad = GridFn.constant(Grid(0.0, 10), 1.0)
        with pytest.raises(CoverageError):
            IvpSpec(0.0, 10, HilferOrder(0.5, 0.5), 1.0, NonHomogeneous(0.1, bad))

    def test_forcing_coverage_checked(self):
        short = GridFn.constant(Grid(0.5, 3), 1.0)
        with pytest.raises(CoverageError):
            IvpSpec(0.0, 10, HilferOrder(0.5, 0.5), 1.0, NonHomogeneous(0.1, short))


class TestLinearRecursion:
    def test_initial_value(self):
        sol = solve_linear(linear_spec(zeta=2.5))
        assert sol(0.0) == 2.5

    def test_first_step_hand_expansion(self):
        # y(1) = zeta*(eta + lam)
        spec = linear_spec(zeta=1.3, lam=0.1, mu=0.8, nu=0.5)
        eta = spec.order.eta
        sol = solve_linear(spec)
        assert sol(1.0) == pytest.approx(1.3 * (eta + 0.1), rel=1e-14)

    def test_zero_lambda_gives_pure_monomial(self):
        spec = linear_spec(lam=0.0, zeta=2.0, mu=0.6, nu=0.7)
        eta = spec.order.eta
        sol = solve_linear(spec)
        for n in range(spec.steps + 1):
            expect = 2.0 * math.gamma(n + eta) / (math.gamma(eta) * math.gamma(n + 1))
            assert sol(float(n)) == pytest.approx(expect, rel=1e-12)

    def test_monotone_growth_for_positive_lambda(self):
        sol = solve_linear(linear_spec(lam=0.3, steps=30))
        assert np.all(np.diff(sol.values.values[1:]) > 0)


class TestCrossValidation:
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("mu", [0.5, 0.8])
    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_recursion_vs_series(self, lam, mu, nu):
        spec = IvpSpec(0.0, 30, HilferOrder(mu, nu), 1.0, Linear(lam))
        rec = solve_linear(spec)
        ser = solve_linear_series(spec)
        scale = np.maximum(1.0, np.abs(rec.values.values))
        err = np.max(np.abs(rec.values.values - ser.values.values) / scale)
        assert err < 1e-8

    def test_series_matches_caputo_closed_form(self):
        # type nu = 1 with base a = mu - 1: values are zeta E_[mu](lam, n)
        mu, lam = 0.6, 0.25
        spec = IvpSpec(mu - 1.0, 20, HilferOrder(mu, 1.0), 1.5, Linear(lam))
        sol = solve_linear_series(spec)
        p = MlParams(mu=mu, eta=1.0, lam=lam)
        for n in range(21):
            x = spec.a + n
            assert sol(x) == pytest.approx(1.5 * ml_plain(p, float(n)), rel=1e-12)

    def test_series_solver_name_and_terms(self):
        sol = solve_linear_series(linear_spec(steps=5))
        assert sol.meta.solver == "linear-series"
        assert sol.meta.terms_used > 0


class TestNonlinear:
    def test_zero_g_gives_pure_monomial(self):
        spec = IvpSpec(
            0.3, 10, HilferOrder(0.7, 0.5), 2.0, Nonlinear(lambda w, u: 0.0)
        )
        eta = spec.order.eta
        sol = solve_nonlinear(spec)
        for n in range(11):
            expect = 2.0 * math.gamma(n + eta) / (math.gamma(eta) * math.gamma(n + 1))
            assert sol(0.3 + n) == pytest.approx(expect, rel=1e-12)

    def test_linear_g_matches_linear_solver(self):
        lam = 0.2
        spec_nl = IvpSpec(
            0.0, 25, HilferOrder(0.8, 0.25), 1.0, Nonlinear(lambda w, u: -lam * u)
        )
        spec_li = IvpSpec(0.0, 25, HilferOrder(0.8, 0.25), 1.0, Linear(lam))
        nl = solve_nonlinear(spec_nl)
        li = solve_linear(spec_li)
        assert np.max(np.abs(nl.values.values - li.values.values)) < 1e-12

    def test_desk_scale_scenario_trajectory_is_finite(self):
        spec = IvpSpec(
            0.3, 9, HilferOrder(0.7, 0.5), 1.0, Nonlinear(lambda w, u: (w - 0.3) * u)
        )
        sol = solve_nonlinear(spec)
        assert sol.values.count == 10
        assert np.all(np.isfinite(sol.values.values))

    def test_overflow_is_truncated_and_reported(self):
        spec = IvpSpec(
            0.0, 60, HilferOrder(0.5, 0.5), 1.0, Nonlinear(lambda w, u: -u * u * u - 10.0)
        )
        sol = solve_nonlinear(spec)
        assert sol.meta.overflow_at is not None
        assert sol.values.count == sol.meta.overflow_at
        assert np.all(np.isfinite(sol.values.values))

    @pytest.mark.parametrize("first_nan", [0, 7])
    def test_nan_from_g_is_not_overflow(self, first_nan):
        g = lambda w, u: math.nan if w >= first_nan else -0.1 * u  # noqa: E731
        spec = IvpSpec(0.0, 20, HilferOrder(0.5, 0.5), 1.0, Nonlinear(g))
        with pytest.raises(NonFiniteError, match=rf"at index {first_nan} \(u = "):
            solve_nonlinear(spec)

    def test_inf_from_g_stays_overflow(self):
        g = lambda w, u: math.inf if w >= 5.0 else 0.0  # noqa: E731
        sol = solve_nonlinear(IvpSpec(0.0, 20, HilferOrder(0.5, 0.5), 1.0, Nonlinear(g)))
        assert sol.meta.overflow_at == 6
        assert sol.values.count == 6


class TestNonHomogeneous:
    def _forcing(self, spec_a, mu, steps, fn):
        grid = Grid(spec_a + 1.0 - mu, steps)
        return GridFn.from_callable(grid, fn)

    def test_zero_forcing_reduces_to_linear_series(self):
        mu, nu, lam = 0.8, 0.5, 0.1
        forcing = self._forcing(0.0, mu, 15, lambda x: 0.0)
        spec = IvpSpec(0.0, 15, HilferOrder(mu, nu), 1.0, NonHomogeneous(lam, forcing))
        got = solve_nonhomogeneous(spec)
        ref = solve_linear_series(IvpSpec(0.0, 15, HilferOrder(mu, nu), 1.0, Linear(lam)))
        assert np.max(np.abs(got.values.values - ref.values.values)) < 1e-12

    def test_zero_lambda_is_monomial_plus_kernel_sum(self):
        mu, nu = 0.7, 0.5
        a, steps = 0.0, 12
        forcing = self._forcing(a, mu, steps, lambda x: math.sin(x))
        spec = IvpSpec(a, steps, HilferOrder(mu, nu), 1.5, NonHomogeneous(0.0, forcing))
        eta = spec.order.eta
        sol = solve_nonhomogeneous(spec)
        for n in range(steps + 1):
            x = a + n
            expect = 1.5 * taylor_monomial(eta - 1.0, x, a + 1.0 - eta)
            for j in range(1, n + 1):
                tau = a + j - mu
                expect += taylor_monomial(mu - 1.0, x, tau + 1.0) * forcing(tau)
            assert sol(x) == pytest.approx(expect, rel=1e-11, abs=1e-12)

    def test_matches_stepping_with_rearranged_rhs(self, rng):
        mu, nu, lam = 0.8, 0.5, 0.1
        a, steps = 0.0, 15
        vals = rng.uniform(-1.0, 1.0, steps)
        forcing = GridFn(Grid(a + 1.0 - mu, steps), vals)
        spec = IvpSpec(a, steps, HilferOrder(mu, nu), 1.0, NonHomogeneous(lam, forcing))
        closed = solve_nonhomogeneous(spec)
        stepped = solve_nonlinear(
            IvpSpec(
                a,
                steps,
                HilferOrder(mu, nu),
                1.0,
                Nonlinear(lambda w, u: -lam * u - forcing(w + 1.0 - mu)),
            )
        )
        err = np.max(np.abs(closed.values.values - stepped.values.values))
        assert err < 1e-8

    def test_bold_route_agrees_with_plain(self, rng):
        # the closed form rebuilt from scalar shifted-argument ("bold")
        # values, a family that shares no code with the lattice tables:
        # E_bold(lam, n) is the plain value at n + eta - 1
        mu, nu, lam, zeta = 0.6, 0.25, 0.2, 1.3
        a, steps = 0.3, 12
        vals = rng.uniform(-1.0, 1.0, steps)
        forcing = GridFn(Grid(a + 1.0 - mu, steps), vals)
        spec = IvpSpec(a, steps, HilferOrder(mu, nu), zeta, NonHomogeneous(lam, forcing))
        head = MlParams(mu=mu, eta=spec.order.eta, lam=lam)
        kernel = [ml_bold(MlParams(mu=mu, eta=mu, lam=lam), float(m)) for m in range(steps)]
        expect = np.array(
            [
                zeta * ml_bold(head, float(n))
                + sum(kernel[n - j] * vals[j - 1] for j in range(1, n + 1))
                for n in range(steps + 1)
            ]
        )
        got = solve_nonhomogeneous(spec)
        assert got.meta.solver == "nonhomogeneous-series"
        assert np.max(np.abs(got.values.values - expect)) < 1e-10


class TestWholePipeline:
    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_defining_equation_residual(self, nu):
        for solver, spec in (
            (solve_linear, linear_spec(nu=nu, steps=25, lam=0.3)),
            (solve_linear_series, linear_spec(nu=nu, steps=25, lam=0.3)),
        ):
            sol = solver(spec)
            res = defining_equation_residual(sol, spec)
            assert float(np.max(np.abs(res.values))) < 1e-8

    def test_residual_for_nonlinear(self):
        spec = IvpSpec(
            0.3, 9, HilferOrder(0.7, 0.5), 1.0, Nonlinear(lambda w, u: (w - 0.3) * u)
        )
        sol = solve_nonlinear(spec)
        res = defining_equation_residual(sol, spec)
        assert float(np.max(np.abs(res.values))) < 1e-8

    def test_residual_for_nonhomogeneous(self, rng):
        mu, nu, lam = 0.8, 0.5, 0.1
        forcing = GridFn(Grid(1.0 - mu, 15), rng.uniform(-1, 1, 15))
        spec = IvpSpec(0.0, 15, HilferOrder(mu, nu), 1.0, NonHomogeneous(lam, forcing))
        sol = solve_nonhomogeneous(spec)
        res = defining_equation_residual(sol, spec)
        assert float(np.max(np.abs(res.values))) < 1e-8

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0])
    def test_residual_scale_bounds_both_terms(self, nu):
        spec = linear_spec(nu=nu, steps=25, lam=-0.4)
        sol = solve_linear(spec)
        diff = hilfer_difference_fn(sol.values, spec.order)
        scale = residual_scale(sol, spec)
        assert scale.grid == diff.grid
        g = -spec.rhs.lam * sol.values.values[: diff.count]
        assert np.all(np.abs(diff.values) <= scale.values * (1 + 1e-12))
        assert np.all(np.abs(g) <= scale.values)
        res = defining_equation_residual(sol, spec)
        assert np.max(np.abs(res.values) / scale.values) < 1e-13

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.9])
    def test_relative_residual_of_growing_long_trajectory(self, lam):
        # values span many orders of magnitude: the transform path must
        # keep the small early terms (absolute residuals reach 1e100+)
        spec = linear_spec(mu=0.6, nu=0.5, steps=2000, lam=lam)
        sol = solve_linear(spec)
        res = defining_equation_residual(sol, spec)
        scale = residual_scale(sol, spec)
        assert np.max(np.abs(res.values) / scale.values) < 1e-12

    def test_long_decaying_trajectory_keeps_the_transform(self, caplog):
        # u decays from 1 to 5.6e-4 over 20000 steps: one bound for the
        # whole grid failed every point, per-block bounds keep most
        spec = linear_spec(mu=0.5, nu=0.5, steps=20000, lam=-0.3)
        sol = solve_linear(spec)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            res = defining_equation_residual(sol, spec)
        records = [r.args for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert len(records) == 2
        assert all(direct < count / 10 for count, _, _, direct in records)
        scale = residual_scale(sol, spec)
        assert np.max(np.abs(res.values) / scale.values) <= 1e-14

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_initial_condition_recovered(self, nu):
        spec = linear_spec(nu=nu, zeta=1.7, lam=0.2)
        sol = solve_linear(spec)
        assert initial_condition_value(sol, spec) == pytest.approx(1.7, abs=1e-9)

    def test_solutions_are_fixed_points(self):
        spec = linear_spec(steps=18, lam=0.25, mu=0.6, nu=0.75)
        sol = solve_linear(spec)
        image = apply_summation_operator(spec, sol.values)
        assert np.max(np.abs(image.values - sol.values.values)) < 1e-12

    def test_endpoint_types_match_standalone_formulations(self):
        # the type-0/type-1 solutions plugged into the endpoint operators
        # satisfy the corresponding defining equations exactly
        from hilfer_dfc import caputo_difference_fn, rl_difference_fn

        lam, mu = 0.1, 0.8
        for nu, op in ((0.0, rl_difference_fn), (1.0, caputo_difference_fn)):
            spec = linear_spec(nu=nu, lam=lam, mu=mu, steps=20)
            sol = solve_linear(spec)
            diff = op(sol.values, mu)
            for j in range(diff.count):
                w = spec.a + j
                residual = float(diff.values[j]) - lam * sol(w)
                assert abs(residual) < 1e-9

    def test_dispatch(self):
        assert solve(linear_spec()).meta.solver == "linear-recursion"


def reference_step(spec, g_of_index):
    """The scalar forward-stepping loop the solvers were first written with.

    ``g_of_index(j, u)`` is g at the j-th summation slot (point a+j-1).
    Each slot's g value is computed once and reused, which leaves the
    accumulation order of the original loop unchanged.  Returns the
    trajectory, the overflow index and the error scale
    |zeta| c_eta + conv(k_mu, |g|).
    """
    mu, eta = spec.order.mu, spec.order.eta
    c = [1.0]
    for n in range(1, spec.steps + 1):
        c.append(c[-1] * (n - 1 + eta) / n)
    kernel = [float(w) for w in sum_kernel(mu, spec.steps)]
    y, gs = [float(spec.zeta)], []
    overflow_at = None
    for n in range(1, spec.steps + 1):
        gs.append(g_of_index(n, y[n - 1]))
        acc = 0.0
        for j in range(1, n + 1):
            acc += kernel[n - j] * gs[j - 1]
        value = spec.zeta * c[n] - acc
        if not math.isfinite(value) or abs(value) > 1e300:
            overflow_at = n
            break
        y.append(value)
    m = len(y)
    scale = abs(spec.zeta) * np.array(c[:m])
    with np.errstate(invalid="ignore", over="ignore"):
        scale[1:] += np.convolve(kernel[: m - 1], np.abs(gs[: m - 1]))[: m - 1]
    return np.array(y), overflow_at, scale


def _forced_g(w, u):
    return -0.4 * u - 0.2 * math.cos(0.3 * w) + 0.05 * math.sin(u)


class TestEngineAgainstScalarLoop:
    TOL = 1e-13  # relative to |zeta| c + conv(k, |g|), fixed from float64 eps

    def assert_matches(self, sol, ref, ref_overflow, scale):
        assert sol.meta.overflow_at == ref_overflow
        got = sol.values.values
        assert len(got) == len(ref)
        assert np.max(np.abs(got - ref) / scale) < self.TOL

    #: both sides of the first block edges, and a long horizon
    STEPS = [1, 2, 50, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 2000, 5000]

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("lam", [0.7, -0.9])
    def test_linear(self, steps, lam):
        spec = IvpSpec(0.3, steps, HilferOrder(0.35, 0.6), 1.3, Linear(lam))
        ref, ref_overflow, scale = reference_step(spec, lambda j, u: -lam * u)
        self.assert_matches(solve_linear(spec), ref, ref_overflow, scale)

    @pytest.mark.parametrize("steps", STEPS)
    def test_nonlinear(self, steps):
        a = 2.5
        spec = IvpSpec(a, steps, HilferOrder(0.8, 0.25), 0.7, Nonlinear(_forced_g))
        ref, ref_overflow, scale = reference_step(
            spec, lambda j, u: _forced_g(a + j - 1.0, u)
        )
        # the forced trajectory grows past OVERFLOW_LIMIT at step 2651
        assert (ref_overflow is None) == (steps <= 2000)
        self.assert_matches(solve_nonlinear(spec), ref, ref_overflow, scale)

    @pytest.mark.parametrize(
        "rhs",
        [Linear(0.99), Nonlinear(lambda w, u: -u * u * u - 10.0)],
        ids=["linear-growth", "cubic-blowup"],
    )
    def test_overflow_index_matches(self, rhs):
        spec = IvpSpec(0.0, 2000, HilferOrder(0.3, 0.5), 1.0, rhs)
        ref, ref_overflow, scale = reference_step(
            spec, lambda j, u: rhs.g(j - 1.0, u, j - 0.3)
        )
        sol = solve(spec)
        assert ref_overflow is not None
        assert sol.values.count == ref_overflow
        self.assert_matches(sol, ref, ref_overflow, scale)

    @staticmethod
    def sweep_cases(seed=8, count=9):
        """(lam, mu, nu, base, steps): lam stratified over (-1, 1), nu at
        0, inside and at 1, bases 0, 2.5 and 1e10 + 0.3, steps up to 700."""
        rng = np.random.default_rng(seed)
        cases = []
        for i in range(count):
            lam = -0.99 + 1.98 * (i + rng.uniform()) / count
            mu = float(rng.uniform(0.1, 0.95))
            nu = (0.0, float(rng.uniform(0.1, 0.9)), 1.0)[i % 3]
            base = (0.0, 2.5, 1e10 + 0.3)[i // 3]
            cases.append((lam, mu, nu, base, int(rng.integers(1, 701))))
        return cases

    @pytest.mark.parametrize("lam, mu, nu, base, steps", sweep_cases())
    def test_sweep_through_every_stepped_route(self, lam, mu, nu, base, steps):
        order = HilferOrder(mu, nu)
        linear = IvpSpec(base, steps, order, 1.1, Linear(lam))
        ref, ref_overflow, scale = reference_step(linear, lambda j, u: -lam * u)
        self.assert_matches(solve_linear(linear), ref, ref_overflow, scale)

        def fn(w, u):
            return -lam * u + 0.3 * math.cos(w - base)

        nonlinear = IvpSpec(base, steps, order, -0.6, Nonlinear(fn))
        ref, ref_overflow, scale = reference_step(nonlinear, lambda j, u: fn(base + j - 1.0, u))
        self.assert_matches(solve_nonlinear(nonlinear), ref, ref_overflow, scale)

        # the Gronwall series is the engine at (mu, eta) with g = -v w
        v = GridFn(Grid(base, steps + 1), abs(lam) * np.cos(0.1 * np.arange(steps + 1)))
        series = SimpleNamespace(order=order, zeta=1.7, steps=steps)
        ref, _, scale = reference_step(series, lambda j, w: -float(v.values[j - 1]) * w)
        for n in {1, steps // 2, steps}:
            got = gronwall_series(1.7, v, order, base + n)
            assert abs(got - ref[n]) / scale[n] < self.TOL

    @pytest.mark.parametrize("first_nan", [_BLOCK, 2 * _BLOCK - 1])
    def test_nan_at_a_block_edge_names_its_index(self, first_nan):
        # the first and the last step of the second block
        def g(w, u):
            return math.nan if w >= first_nan else -0.3 * u

        spec = IvpSpec(0.0, 3 * _BLOCK, HilferOrder(0.5, 0.5), 1.0, Nonlinear(g))
        ref, _, scale = reference_step(spec, lambda j, u: -0.3 * u)
        with pytest.raises(NonFiniteError, match=rf"at index {first_nan} \(u = ") as caught:
            solve_nonlinear(spec)
        u = float(re.search(r"\(u = (.*)\)$", str(caught.value)).group(1))
        assert abs(u - ref[first_nan]) / scale[first_nan] < self.TOL


class TestRightHandSideMethod:
    def test_each_kind_evaluates_g_at_its_points(self):
        forcing = GridFn(Grid(0.4, 3), np.array([1.0, 2.0, 3.0]))
        assert Linear(0.5).g(1.0, 2.0, 1.4) == -1.0
        assert Nonlinear(lambda w, u: w * u).g(1.0, 2.0, 1.4) == 2.0
        assert NonHomogeneous(0.5, forcing).g(1.0, 2.0, 1.4) == -1.0 - 2.0

    @pytest.mark.parametrize("kind", ["linear", "nonlinear", "nonhomogeneous"])
    def test_on_grid_is_g_bit_for_bit(self, rng, kind):
        a, mu, n = 1e10 + 0.3, 0.37, 400
        u = rng.standard_normal(n) * np.exp(rng.uniform(-40.0, 40.0, n))
        u[:3] = (0.0, -0.0, 1e300)
        lam = float(rng.uniform(-1.0, 1.0))
        forcing = GridFn(Grid(a + 1.0 - mu, n + 5), rng.standard_normal(n + 5))
        rhs = {
            "linear": Linear(lam),
            "nonlinear": Nonlinear(lambda w, v: math.sin(w) * v - lam * v * v),
            "nonhomogeneous": NonHomogeneous(lam, forcing),
        }[kind]
        scalar = np.array([rhs.g(a + j, float(u[j]), a + j + 1.0 - mu) for j in range(n)])
        whole = rhs.on_grid(u, a, mu)
        assert whole.dtype == np.float64
        assert whole.tobytes() == scalar.tobytes()
        assert rhs.on_grid(u[:0], a, mu).shape == (0,)

    def test_short_forcing_fails_as_g_does(self):
        a, mu = 0.0, 0.6
        rhs = NonHomogeneous(0.2, GridFn(Grid(a + 1.0 - mu, 3), np.ones(3)))
        u = np.linspace(1.0, 2.0, 5)
        with pytest.raises(OffGridError) as scalar:
            [rhs.g(a + j, float(u[j]), a + j + 1.0 - mu) for j in range(len(u))]
        with pytest.raises(OffGridError) as whole:
            rhs.on_grid(u, a, mu)
        assert str(whole.value) == str(scalar.value)
        assert rhs.on_grid(u[:3], a, mu).tolist() == [-0.2 * x - 1.0 for x in u[:3]]


class TestLatticeSeries:
    def test_long_horizon_matches_recursion(self):
        # the scalar series needed n+1 > 512 terms here and raised
        spec = IvpSpec(0.0, 600, HilferOrder(0.6, 0.5), 1.0, Linear(0.9))
        ser = solve_linear_series(spec)
        rec = solve_linear(spec)
        assert ser.meta.overflow_at is None
        rel = np.abs(ser.values.values - rec.values.values) / np.abs(rec.values.values)
        assert np.max(rel) < 1e-10

    def test_terms_used_counts_the_symbol_samples(self):
        # M/2 + 1 samples, M = 256 the even 5-smooth length >= 16 max(N, 16)
        assert solve_linear_series(linear_spec(steps=5)).meta.terms_used == 129
        assert solve_linear_series(linear_spec(steps=5, lam=0.0)).meta.terms_used == 129
        # M = 9720 for N = 601
        assert solve_linear_series(linear_spec(steps=600)).meta.terms_used == 4861

    def test_overflow_is_truncated_like_the_recursion(self):
        spec = IvpSpec(0.0, 2000, HilferOrder(0.3, 0.5), 1.0, Linear(0.99))
        ser = solve_linear_series(spec)
        rec = solve_linear(spec)
        assert ser.meta.overflow_at is not None
        assert abs(ser.meta.overflow_at - rec.meta.overflow_at) <= 1
        assert ser.values.count == ser.meta.overflow_at


#: the former row table missed 1e-12 of the term scale from n = 21 on here, and 100 % from n = 77
LONG_NEGATIVE = (-0.9, 0.5, 0.0, 2000)


class TestSeriesRoutesAgainstRecursion:
    """Both series routes against an extended-precision recursion: each
    value within 1e-12 of the term scale |zeta c_eta| + conv(k_mu, |g|),
    with the same overflow index."""

    TOL = 1e-12

    def _check(self, sol, ref, scale):
        finite = np.isfinite(ref)
        assert sol.meta.overflow_at == (None if finite.all() else int(np.argmin(finite)))
        u = sol.values.values
        assert np.max(np.abs(u - ref[: len(u)]) / scale[: len(u)]) <= self.TOL

    @pytest.mark.parametrize("lam, mu, nu, steps", stratified_cases(3, 12, 0.95) + [LONG_NEGATIVE])
    def test_linear_series(self, lam, mu, nu, steps):
        spec = IvpSpec(0.3, steps, HilferOrder(mu, nu), 1.7, Linear(lam))
        ref, scale = ld_recursion(mu, spec.order.eta, lam, 1.7, steps + 1)
        self._check(solve_linear_series(spec), ref, scale)

    @pytest.mark.parametrize("lam, mu, nu, steps", stratified_cases(4, 12, 0.95) + [LONG_NEGATIVE])
    def test_nonhomogeneous(self, lam, mu, nu, steps):
        order = HilferOrder(mu, nu)
        f = 0.3 * np.cos(0.4 * np.arange(steps) + 1.0)
        rhs = NonHomogeneous(lam, GridFn(Grid(1.0 - mu, steps), f))
        spec = IvpSpec(0.0, steps, order, 0.8, rhs)
        ref, scale = ld_recursion(mu, order.eta, lam, 0.8, steps + 1, f)
        self._check(solve_nonhomogeneous(spec), ref, scale)
