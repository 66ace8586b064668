"""IVP solvers: hand-expanded values, cross-validation, residuals."""

import logging
import math
import re
from operator import mul
from dataclasses import replace
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
    apply_summation_operator,
    caputo_difference_fn,
    causal_convolve,
    defining_equation_residual,
    ev_operator,
    falling_factorial,
    forward_difference_fn,
    fractional_sum_fn,
    gronwall_check,
    gronwall_series,
    hilfer_difference_fn,
    initial_condition_value,
    ml_eval,
    ml_plain,
    residual_scale,
    rl_difference_fn,
    solve,
    solve_linear,
    solve_linear_series,
    solve_nonhomogeneous,
    solve_nonlinear,
    sum_kernel,
    taylor_monomial,
)
from hilfer_dfc.solvers import _BLOCK, _SOLVE_BLOCK, _SOLVE_MIN, OVERFLOW_LIMIT, _solve_blocks, _volterra


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_base_and_zeta_refused(self, bad):
        # a nan a or zeta gave exit 0 with nan rows, an infinite zeta "overflow at 0"
        order = HilferOrder(0.5, 0.5)
        with pytest.raises(ValueError, match="a and zeta must be finite"):
            IvpSpec(bad, 5, order, 1.0, Linear(0.1))
        with pytest.raises(ValueError, match="a and zeta must be finite"):
            IvpSpec(0.0, 5, order, bad, Linear(0.1))
        # an infinite lam was reported as overflow at index 1
        with pytest.raises(ValueError, match="lam must be finite"):
            IvpSpec(0.0, 5, order, 1.0, Linear(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_forcing_refused_where_it_is_read(self, bad):
        # a nan forcing sample was reported as overflow by the transform route
        order = HilferOrder(0.5, 0.5)
        vals = np.ones(8)
        vals[4] = bad
        forcing = GridFn(Grid(0.5, 8), vals)
        with pytest.raises(ValueError, match=r"forcing must be finite: sample 4 is"):
            IvpSpec(0.0, 5, order, 1.0, NonHomogeneous(0.1, forcing))
        # samples past the horizon are never read
        spec = IvpSpec(0.0, 4, order, 1.0, NonHomogeneous(0.1, forcing))
        assert np.isfinite(solve(spec).values.values).all()


    @pytest.mark.parametrize("steps", [2.5, 3.0])
    def test_non_integral_steps_are_named(self, steps):
        # steps=2.5 died inside numpy with a bare TypeError
        with pytest.raises(ValueError, match=rf"^steps must be an integer: got {steps!r}$"):
            IvpSpec(0.0, steps, HilferOrder(0.5, 0.5), 1.0, Linear(0.1))

    def test_numpy_integer_steps(self):
        spec = IvpSpec(0.0, np.int64(5), HilferOrder(0.5, 0.5), 1.0, Linear(0.1))
        assert solve(spec).values.values.tobytes() == solve(replace(spec, steps=5)).values.values.tobytes()


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
        # the closed form rebuilt from shifted-argument ("bold") values,
        # E_bold(lam, n) the plain value at n + eta - 1, with the forcing's
        # convolution summed here rather than in the transform
        mu, nu, lam, zeta = 0.6, 0.25, 0.2, 1.3
        a, steps = 0.3, 12
        vals = rng.uniform(-1.0, 1.0, steps)
        forcing = GridFn(Grid(a + 1.0 - mu, steps), vals)
        spec = IvpSpec(a, steps, HilferOrder(mu, nu), zeta, NonHomogeneous(lam, forcing))
        head = MlParams(mu=mu, eta=spec.order.eta, lam=lam)
        kernel = [ml_eval(MlParams(mu=mu, eta=mu, lam=lam), float(m), bold=True).value for m in range(steps)]
        expect = np.array(
            [
                zeta * ml_eval(head, float(n), bold=True).value
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

    @pytest.mark.parametrize("nu", [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0])
    @pytest.mark.parametrize("steps, lam", [(300, -0.4), (3000, -0.3), (2000, 0.2)])
    def test_residual_scale_is_the_composed_two_sums(self, nu, steps, lam):
        # the one-sum form T[j+1] + T[j] - c_beta[j+1] |u(a)| against the
        # composition it collapses: the inner sum, neighbours added, the outer sum
        spec = linear_spec(mu=0.6, nu=nu, steps=steps, lam=lam)
        sol = solve_linear_series(spec)
        u, order = np.abs(sol.values.values), spec.order
        n = len(u)
        inner = causal_convolve(sum_kernel(order.inner_sum_order, n), u)
        composed = causal_convolve(sum_kernel(order.outer_sum_order, n - 1), inner[1:] + inner[:-1])
        composed += np.abs(spec.rhs.lam * sol.values.values[: n - 1])
        scale = residual_scale(sol, spec)
        assert scale.grid == Grid(spec.a + 1.0 - order.mu, n - 1)
        assert np.max(np.abs(scale.values - composed) / composed) < 1e-13

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
        assert len(records) == 1
        assert all(direct < count / 10 for count, _, _, direct in records)
        scale = residual_scale(sol, spec)
        assert np.max(np.abs(res.values) / scale.values) <= 1e-14

    def test_longer_decaying_trajectory_sums_no_more_directly(self, caplog):
        # blocks that grew with the grid made the bounds of a 50000-step
        # residual fail at most points, and two of its sums ran whole
        direct = {}
        for steps in (20000, 50000):
            spec = linear_spec(mu=0.9, nu=0.0, steps=steps, lam=-0.5)
            sol = solve_linear_series(spec)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
                res = defining_equation_residual(sol, spec)
                scale = residual_scale(sol, spec)
            records = [r.args for r in caplog.records if r.name == "hilfer_dfc.operators"]
            assert records and all(points < count for count, _, _, points in records)
            direct[steps] = sum(points for *_, points in records)
            assert np.max(np.abs(res.values) / scale.values) <= 1e-11
        assert direct[50000] <= 1.1 * direct[20000]

    @pytest.mark.parametrize("mu, nu, lam", [(0.7, 0.5, -0.9), (0.3, 0.5, -0.5), (0.9, 0.5, -0.5)])
    def test_decaying_interior_residual_sums_no_whole_grid(self, caplog, mu, nu, lam):
        # the composition's outer stage summed all 20000 points of the
        # first case directly; the one-sum form keeps the transform
        spec = linear_spec(mu=mu, nu=nu, steps=20000, lam=lam)
        sol = solve_linear_series(spec)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            res = defining_equation_residual(sol, spec)
        records = [r.args for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert records and all(direct <= count / 4 for count, _, _, direct in records)
        scale = residual_scale(sol, spec)
        assert np.max(np.abs(res.values) / scale.values) <= 1e-11

    def test_rising_residual_sums_no_point_directly(self, caplog):
        # u rises to 6.5e51 over 20000 steps: every block's early points
        # failed its bound, and all 20001 points were summed directly.
        # Rescaled by rho^-j the rise is gone and the transform keeps them
        spec = linear_spec(mu=0.9, nu=0.5, steps=20000, lam=0.01)
        sol = solve_linear_series(spec)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            res = defining_equation_residual(sol, spec)
        records = [r.args for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert len(records) == 1 and records[0][3] == 0
        assert np.max(np.abs(res.values) / residual_scale(sol, spec).values) <= 1e-12
        # the convolution it runs, against the direct sum, both judged by
        # a long-double sum relative to the term size
        u = sol.values.values
        kernel = sum_kernel(1.0 - spec.order.mu, len(u))
        ld = np.longdouble
        exact = np.convolve(kernel.astype(ld), u.astype(ld))[: len(u)]
        size = np.convolve(kernel, np.abs(u))[: len(u)]
        outs = (causal_convolve(kernel, u), np.convolve(kernel, u)[: len(u)])
        errors = [np.max(np.abs(out - exact) / size) for out in outs]
        assert errors[0] <= 2.0 * errors[1], errors

    @pytest.mark.parametrize("steps", [2000, 20000])
    def test_falling_residual_splits_off_its_head(self, caplog, fft_calls, steps):
        # u falls from 1 by more than 2^4 within its first 16 steps: the
        # bound of block 0 failed its later points, and the residual paid
        # the transform of |k| against |u| (20000 steps) or summed every
        # point directly (2000).  The first cell is summed apart instead
        spec = linear_spec(mu=0.342, nu=0.0, steps=steps, lam=-0.66)
        sol = solve_linear_series(spec)
        fft_calls.clear()
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            res = defining_equation_residual(sol, spec)
        assert fft_calls == ["rfft", "rfft", "irfft"]
        records = [r.args for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert len(records) == 1 and records[0][3] < records[0][0] / 100
        assert np.max(np.abs(res.values) / residual_scale(sol, spec).values) <= 1e-12

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

    @pytest.mark.parametrize("n", [40, 2000])
    def test_library_results_are_read_only_and_apart_from_their_inputs(self, rng, n):
        # results take over the fresh arrays the library computed instead
        # of copying them: each must still be read-only and share no
        # memory with the GridFn or trajectory it was computed from
        f = GridFn(Grid(0.5, n), rng.uniform(-1.0, 1.0, n))
        spec = linear_spec(steps=n - 1, lam=-0.3)
        sol = solve_linear(spec)
        results = {
            "sum": (fractional_sum_fn(f, 0.4), f),
            "difference": (forward_difference_fn(f), f),
            "rl": (rl_difference_fn(f, 0.6), f),
            "caputo": (caputo_difference_fn(f, 0.6), f),
            "hilfer": (hilfer_difference_fn(f, HilferOrder(0.6, 0.3)), f),
            "gronwall": (ev_operator(f, f, 0.4, 0.5), f),
            "map": (apply_summation_operator(spec, sol.values), sol.values),
            "residual": (defining_equation_residual(sol, spec), sol.values),
            "scale": (residual_scale(sol, spec), sol.values),
        }
        for name, (out, source) in results.items():
            assert not out.values.flags.writeable, name
            with pytest.raises(ValueError):
                out.values[0] = 1.0
            assert not np.shares_memory(out.values, source.values), name
        assert not sol.values.values.flags.writeable


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


def first_engine(mu, eta, zeta, steps, g_at):
    """The block-stepped engine as first written: each step indexes the
    block's lists and forms zeta c_eta[n] itself.  The engine must give
    its bits, its overflow index and its nan index."""
    zeta = float(zeta)
    c = sum_kernel(eta, steps + 1).tolist()
    k = sum_kernel(mu, steps)
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


def _forced_g(w, u):
    return -0.4 * u - 0.2 * math.cos(0.3 * w) + 0.05 * math.sin(u)


def _cubic(w, u):
    return -u * u * u - 10.0


def assert_matches_the_long_double_recursion(spec, sol, tol=1e-13):
    """The linear trajectory against ``ld_recursion``: the same overflow
    index, and every value within tol of the term scale."""
    order = spec.order
    ref, scale = ld_recursion(order.mu, order.eta, spec.rhs.lam, spec.zeta, spec.steps + 1)
    bad = np.isnan(ref)
    assert sol.meta.overflow_at == (int(np.argmax(bad)) if bad.any() else None)
    got = sol.values.values
    error = np.abs(got - ref[: len(got)]) / scale[: len(got)]
    assert error.max() < tol
    return error.max()


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
        "rhs, g",
        [(Linear(0.99), lambda w, u: -0.99 * u), (Nonlinear(_cubic), _cubic)],
        ids=["linear-growth", "cubic-blowup"],
    )
    def test_overflow_index_matches(self, rhs, g):
        spec = IvpSpec(0.0, 2000, HilferOrder(0.3, 0.5), 1.0, rhs)
        ref, ref_overflow, scale = reference_step(spec, lambda j, u: g(j - 1.0, u))
        sol = solve(spec)
        assert ref_overflow is not None
        assert sol.values.count == ref_overflow
        self.assert_matches(sol, ref, ref_overflow, scale)

    @pytest.mark.parametrize("steps", STEPS)
    def test_bit_for_bit_the_first_engine(self, steps):
        # a constant coefficient takes block products (TestBlockProducts),
        # except where its impulse response grows and changes sign: lam = -1.5
        a, order = 2.5, HilferOrder(0.35, 0.6)
        mu, eta = order.mu, order.eta
        for rhs, g in (
            (Linear(-1.5), lambda w, u: 1.5 * u),
            (Nonlinear(_forced_g), _forced_g),
        ):
            spec = IvpSpec(a, steps, order, 1.3, rhs)
            ref = first_engine(mu, eta, 1.3, steps, lambda j, u: g(a + j, u))
            got = solve(spec).values.values
            assert np.array_equal(got, ref[: len(got)]) and np.isnan(ref[len(got) :]).all()
        # the Gronwall series' callable
        vals = (0.9 * np.cos(0.7 * np.arange(steps))).tolist()
        for g_at in (lambda j, w: -vals[j] * w, lambda j, w: 1e30 * vals[j] * w):
            ref = first_engine(1.0, 0.45, 1.7, steps, g_at)
            assert np.array_equal(_volterra(1.0, 0.45, 1.7, steps, g_at), ref, equal_nan=True)

    @pytest.mark.parametrize("steps", STEPS)
    def test_bit_for_bit_the_first_engine_in_the_gronwall_series(self, steps):
        # the series hands the engine coefficients -v_j; the first engine
        # stepped the callable -v_j w
        base, order = 2.5, HilferOrder(0.35, 0.6)
        grid = Grid(base, steps + 1)
        zero = GridFn(grid, np.zeros(steps + 1))
        v = 0.9 * np.cos(0.7 * np.arange(steps + 1))
        vals = v.tolist()
        ref = first_engine(order.mu, order.eta, 1.7, steps, lambda j, w: -vals[j] * w)
        vfn = GridFn(grid, v)
        assert gronwall_check(zero, 1.7, vfn, order).series.tobytes() == ref.tobytes()
        for n in {0, 1, steps // 2, steps}:
            assert gronwall_series(1.7, vfn, order, base + n) == ref[n]

    @pytest.mark.parametrize("steps", STEPS)
    def test_constant_gronwall_series_matches_the_long_double_recursion(self, steps):
        # w doubles each step at mu = 1, past the float range from step 1024
        grid = Grid(2.5, steps + 1)
        vfn = GridFn(grid, np.full(steps + 1, 0.999))
        series = gronwall_check(GridFn(grid, np.zeros(steps + 1)), 1.7, vfn, (1.0, 0.45)).series
        ref, scale = ld_recursion(1.0, 0.45, 0.999, 1.7, steps + 1)
        assert np.array_equal(np.isinf(series), np.isnan(ref))
        assert np.isinf(series[-1]) == (steps >= 2000)
        kept = ~np.isnan(ref)
        assert np.max(np.abs(series - ref)[kept] / scale[kept]) < self.TOL
        # the series at one point runs the engine up to that point alone
        for n in {0, 1, steps // 2, steps}:
            got = gronwall_series(1.7, vfn, (1.0, 0.45), 2.5 + n)
            assert got == series[n] if np.isnan(ref[n]) else abs(got - ref[n]) < self.TOL * scale[n]

    def test_bit_for_bit_the_first_engine_at_overflow_and_nan(self):
        a, order = 0.0, HilferOrder(0.3, 0.5)
        mu, eta = order.mu, order.eta
        ref = first_engine(mu, eta, 1.0, 2000, lambda j, u: _cubic(a + j, u))
        got = solve(IvpSpec(a, 2000, order, 1.0, Nonlinear(_cubic)))
        assert got.meta.overflow_at == int(np.argmax(np.isnan(ref))) > 0
        assert np.array_equal(got.values.values, ref[: got.meta.overflow_at])
        # the growing linear problem, a block product at a time
        spec = IvpSpec(a, 2000, order, 1.0, Linear(0.99))
        assert_matches_the_long_double_recursion(spec, solve(spec))
        rhs = Nonlinear(lambda w, u: math.nan if w >= 2 * _BLOCK + 3 else math.sin(u))
        with pytest.raises(NonFiniteError) as caught:
            first_engine(mu, eta, 1.0, 3 * _BLOCK, lambda j, u: rhs.fn(a + j, u))
        with pytest.raises(NonFiniteError) as engine:
            solve(IvpSpec(a, 3 * _BLOCK, order, 1.0, rhs))
        assert str(engine.value) == str(caught.value)

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


class TestBlockProducts:
    """A constant coefficient solves a block of outputs by one product with
    the engine's impulse response, checked against the long-double
    recursion at 1e-13 of the term scale and the same overflow index."""

    @pytest.mark.parametrize(
        "steps",
        [1, _SOLVE_MIN - 1, _SOLVE_MIN, _SOLVE_BLOCK - 1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1, 2 * _SOLVE_BLOCK],
    )
    @pytest.mark.parametrize("lam", [0.7, -0.9, 0.99, 1.8, -1.5])
    def test_block_edges(self, steps, lam):
        spec = IvpSpec(0.3, steps, HilferOrder(0.35, 0.6), 1.3, Linear(lam))
        assert_matches_the_long_double_recursion(spec, solve_linear(spec))

    @pytest.mark.parametrize("target", [_SOLVE_BLOCK + 1, 2 * _SOLVE_BLOCK])
    def test_overflow_at_the_first_and_last_point_of_a_block(self, target):
        # zeta places the crossing of OVERFLOW_LIMIT between outputs
        # target - 1 and target, a block's first and its last output
        steps, order = 3 * _SOLVE_BLOCK, HilferOrder(0.5, 0.5)
        unit, _ = ld_recursion(order.mu, order.eta, 0.9, 1.0, steps + 1)
        zeta = OVERFLOW_LIMIT / math.sqrt(unit[target] * unit[target - 1])
        spec = IvpSpec(0.0, steps, order, zeta, Linear(0.9))
        sol = solve_linear(spec)
        assert sol.meta.overflow_at == target == sol.values.count
        assert_matches_the_long_double_recursion(spec, sol)

    def test_zero_lam_is_the_monomial_term(self):
        spec = IvpSpec(0.0, 300, HilferOrder(0.4, 0.3), 1.7, Linear(0.0))
        expect = 1.7 * sum_kernel(spec.order.eta, 301)
        assert solve_linear(spec).values.values.tobytes() == expect.tobytes()

    def test_one_step_of_the_block_product(self):
        mu, eta, zeta, c = 0.35, 0.6, 1.3, -0.7
        y = np.array([zeta, math.nan])
        assert _solve_blocks(sum_kernel(mu, 1), zeta * sum_kernel(eta, 2)[1:], c, y, np.empty(1))
        assert y.tolist() == [zeta, zeta * eta - c * zeta]

    def test_solve_linear_and_the_constant_gronwall_series_agree_bit_for_bit(self):
        # the equality case of the comparison bound stays exact
        for steps in (_SOLVE_MIN - 1, 2000):
            spec = IvpSpec(2.5, steps, HilferOrder(0.45, 0.3), 1.2, Linear(0.6))
            u = solve_linear(spec).values
            v = GridFn.constant(u.grid, 0.6)
            check = gronwall_check(u, 1.2, v, spec.order)
            assert check.series.tobytes() == u.values.tobytes()
            assert check.all_ok

    def test_seeded_sweep_against_the_long_double_recursion(self):
        # 120 cases, lam in (-1, 1), 40 to 3000 steps log-uniform
        rng = np.random.default_rng(27)
        errors = []
        for i in range(120):
            lam = -1.0 + 2.0 * (i + rng.uniform()) / 120
            mu, nu = rng.uniform(0.05, 0.99), rng.uniform()
            steps = int(np.exp(rng.uniform(math.log(40), math.log(3000))))
            spec = IvpSpec(0.0, steps, HilferOrder(mu, nu), rng.uniform(0.5, 2.0), Linear(lam))
            errors.append(assert_matches_the_long_double_recursion(spec, solve_linear(spec)))
        assert np.median(errors) < 4e-15


class TestRightHandSideMethod:
    @pytest.mark.parametrize("kind", ["linear", "nonlinear", "nonhomogeneous"])
    def test_on_grid_and_stepper_are_the_formula_bit_for_bit(self, rng, kind):
        a, mu, n = 1e10 + 0.3, 0.37, 400
        u = rng.standard_normal(n) * np.exp(rng.uniform(-40.0, 40.0, n))
        u[:3] = (0.0, -0.0, 1e300)
        lam = float(rng.uniform(-1.0, 1.0))
        f = rng.standard_normal(n + 5)

        def fn(w, v):
            return math.sin(w) * v - lam * v * v

        # g at base-grid index j, w = a + j; the forcing's sample j is at a + j + 1 - mu
        rhs, formula = {
            "linear": (Linear(lam), lambda j, v: -lam * v),
            "nonlinear": (Nonlinear(fn), lambda j, v: fn(a + j, v)),
            "nonhomogeneous": (
                NonHomogeneous(lam, GridFn(Grid(a + 1.0 - mu, n + 5), f)),
                lambda j, v: -lam * v - float(f[j]),
            ),
        }[kind]
        expected = np.array([formula(j, float(u[j])) for j in range(n)])
        whole = rhs.on_grid(u, a)
        assert whole.dtype == np.float64
        assert whole.tobytes() == expected.tobytes()
        assert rhs.on_grid(u[:0], a).shape == (0,)
        # the per-step callable the engine steps with
        stepper = rhs._stepper(a)
        stepped = np.array([stepper(j, float(u[j])) for j in range(n)])
        assert stepped.tobytes() == expected.tobytes()

    def test_short_forcing_is_a_coverage_error(self):
        a, mu = 0.0, 0.6
        rhs = NonHomogeneous(0.2, GridFn(Grid(a + 1.0 - mu, 3), np.ones(3)))
        u = np.linspace(1.0, 2.0, 5)
        with pytest.raises(CoverageError, match=r"^forcing must cover 5 points, has 3$"):
            rhs.on_grid(u, a)
        assert rhs.on_grid(u[:3], a).tolist() == [-0.2 * x - 1.0 for x in u[:3]]


class TestLatticeSeries:
    def test_long_horizon_matches_recursion(self):
        # the scalar series needed n+1 > 512 terms here and raised
        spec = IvpSpec(0.0, 600, HilferOrder(0.6, 0.5), 1.0, Linear(0.9))
        ser = solve_linear_series(spec)
        rec = solve_linear(spec)
        assert ser.meta.overflow_at is None
        rel = np.abs(ser.values.values - rec.values.values) / np.abs(rec.values.values)
        assert np.max(rel) < 1e-10

    def test_long_growing_solve_leaks_no_warning(self):
        # r^(-n/2) passes the float range from some n on; the RuntimeWarning
        # that pytest turns into an error must not escape the transform
        spec = IvpSpec(0.0, 20000, HilferOrder(0.5, 0.5), 1.0, Linear(0.3))
        assert solve_linear_series(spec).meta.overflow_at == 8655

    def test_terms_used_counts_the_symbol_samples(self):
        # M/2 + 1 samples, M = 256 the even 5-smooth length >= 16 max(N, 16)
        assert solve_linear_series(linear_spec(steps=5)).meta.terms_used == 129
        assert solve_linear_series(linear_spec(steps=5, lam=0.0)).meta.terms_used == 129
        # M = 9720 for N = 601
        assert solve_linear_series(linear_spec(steps=600)).meta.terms_used == 4861

    @pytest.mark.parametrize("zeta", [1e308, -1.7e308])
    def test_zeta_at_the_float_limit_overflows_at_once_without_a_warning(self, zeta):
        # zeta U(z) reads inf on the contour; the RuntimeWarning that pytest
        # turns into an error must not escape, and stepping stops at 0 too
        spec = linear_spec(steps=40, mu=0.5, nu=0.0, zeta=zeta, lam=0.3)
        ser = solve_linear_series(spec)
        assert ser.meta.overflow_at == solve_linear(spec).meta.overflow_at == 0
        assert ser.values.count == 0

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

    def _growing_forcing(self):
        lam, mu, nu, steps = -0.5, 0.6, 0.4, 2000
        f = 1.02 ** np.arange(steps)
        rhs = NonHomogeneous(lam, GridFn(Grid(1.0 - mu, steps), f))
        spec = IvpSpec(0.0, steps, HilferOrder(mu, nu), 1.0, rhs)
        return (spec, *ld_recursion(mu, spec.order.eta, lam, 1.0, steps + 1, f))

    @pytest.mark.xfail(
        strict=True,
        reason="the forced closed form's roundoff follows its largest forcing sample (1.6e17 here), "
        "not each output: 3.9e-1 of the term scale off at index 1",
    )
    def test_nonhomogeneous_under_growing_forcing(self):
        spec, ref, scale = self._growing_forcing()
        self._check(solve_nonhomogeneous(spec), ref, scale)

    def test_stepping_under_growing_forcing(self):
        # the same problem stepped: the twin of the expected failure above
        spec, ref, scale = self._growing_forcing()
        lam, f, mu = spec.rhs.lam, spec.rhs.forcing, spec.order.mu
        stepped = replace(spec, rhs=Nonlinear(lambda w, u: -lam * u - f(w + 1.0 - mu)))
        self._check(solve_nonlinear(stepped), ref, scale)


def _with_rhs(rhs):
    return IvpSpec(0.0, 6, HilferOrder(0.5, 0.5), 1.0, rhs)


_CONSTANT_FORCING = GridFn(Grid(0.5, 6), np.ones(6))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: solve_linear(_with_rhs(Nonlinear(lambda w, u: u))), TypeError, "needs a Linear"),
        (lambda: solve_linear_series(_with_rhs(NonHomogeneous(0.1, _CONSTANT_FORCING))), TypeError,
         "needs a Linear"),
        (lambda: solve_nonlinear(_with_rhs(Linear(0.1))), TypeError, "needs a Nonlinear"),
        (lambda: solve_nonhomogeneous(_with_rhs(Linear(0.1))), TypeError, "needs a NonHomogeneous"),
        (lambda: apply_summation_operator(_with_rhs(Linear(0.1)), GridFn(Grid(1.0, 6), np.ones(6))),
         CoverageError, "u must be based at 0.0"),
    ],
    ids=["linear-given-nonlinear", "series-given-nonhomogeneous", "nonlinear-given-linear",
         "nonhomogeneous-given-linear", "summation-map-off-base"],
)
def test_documented_errors(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
