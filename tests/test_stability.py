"""Fixed-point thresholds, Gronwall comparison machinery, Ulam experiments."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hilfer_dfc import (
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
    IvpSpec,
    Linear,
    MlParams,
    NonHomogeneous,
    Nonlinear,
    apply_summation_operator,
    ev_operator,
    existence_bound,
    existence_report,
    falling_factorial,
    fractional_sum_fn,
    gronwall_check,
    gronwall_series,
    ml_lattice,
    ml_plain,
    solve,
    solve_linear,
    sum_kernel,
    taylor_monomial,
    ulam_experiment,
    uniqueness_report,
    verify_contraction,
)
from hilfer_dfc import stability
from hilfer_dfc.solvers import NonFiniteError


def desk_order():
    return HilferOrder(0.7, 0.5)


def per_point_lipschitz(spec):
    """Slope estimate of a nonlinear right-hand side, one grid point at a
    time over 41 levels spanning the exact trajectory padded by a quarter."""
    u = solve(spec).values.values
    pad = 0.25 * (u.max() - u.min()) + 1e-3
    us = np.linspace(u.min() - pad, u.max() + pad, 41)
    worst = 0.0
    for w in Grid(spec.a, spec.steps).points:
        gs = np.array([spec.rhs.fn(float(w), float(v)) for v in us])
        worst = max(worst, float(np.max(np.abs(np.diff(gs) / np.diff(us)))))
    return worst


def stepping_equality(u_a, v: GridFn, mu, eta, n_pts):
    """Forward-stepped exact solution of the summation equality."""
    kernel = [float(w) for w in sum_kernel(mu, max(n_pts - 1, 1))]
    mono = [1.0]
    for n in range(1, n_pts):
        mono.append(mono[-1] * (n - 1 + eta) / n)
    y = [float(u_a)]
    for n in range(1, n_pts):
        acc = sum(
            kernel[n - j] * float(v.values[j - 1]) * y[j - 1]
            for j in range(1, n + 1)
        )
        y.append(u_a * mono[n] + acc)
    return np.array(y)


class TestExistenceBound:
    def test_desk_scenario_value(self):
        # log-gamma oracle: Gamma(1.7) Gamma(9) / Gamma(9.7)
        oracle = math.exp(
            math.lgamma(1.7) + math.lgamma(9.0) - math.lgamma(9.7)
        )
        got = existence_bound(0.3, 9.3, 0.7)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.1974, abs=5e-3)
        assert round(got, 3) in (0.197, 0.198)

    def test_single_step_horizon_is_one(self):
        for mu in (0.2, 0.5, 0.8):
            assert existence_bound(0.0, 1.0, mu) == pytest.approx(1.0, rel=1e-13)

    def test_half_order_oracle(self):
        oracle = math.gamma(1.5) * math.gamma(10.0) / math.gamma(10.5)
        assert existence_bound(0.0, 10.0, 0.5) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_nonintegral_horizon(self):
        with pytest.raises(ValueError):
            existence_bound(0.0, 5.5, 0.5)

    def test_reports(self):
        assert existence_report(0.3, 9.3, 0.7, 0.15).satisfied
        assert not existence_report(0.3, 9.3, 0.7, 0.25).satisfied
        assert uniqueness_report(0.3, 9.3, 0.7, 0.15).satisfied
        bound = existence_bound(0.3, 9.3, 0.7)
        assert not uniqueness_report(0.3, 9.3, 0.7, bound).satisfied
        assert existence_report(0.3, 9.3, 0.7, bound).satisfied


class TestVerifyContraction:
    def _spec(self, k):
        return IvpSpec(0.3, 9, desk_order(), 1.0, Nonlinear(lambda w, u: k * u))

    def test_valid_constant_is_satisfied_and_contractive(self):
        rep = verify_contraction(self._spec(0.15), 0.15)
        assert rep.report.satisfied
        assert rep.empirical_ok
        assert rep.empirical_ratio <= rep.empirical_bound * (1 + 1e-9)

    def test_constant_above_threshold_reported(self):
        rep = verify_contraction(self._spec(0.25), 0.25)
        assert not rep.report.satisfied
        assert rep.report.strict

    def test_zero_constant(self):
        rep = verify_contraction(self._spec(0.0), 0.0)
        assert rep.report.satisfied
        assert rep.empirical_ratio == 0.0

    def test_boundary_strictness(self):
        bound = existence_bound(0.3, 9.3, 0.7)
        rep = verify_contraction(self._spec(bound + 0.01), bound + 0.01)
        assert not rep.report.satisfied


    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trial_is_refused(self, trials):
        # no pair was drawn, and the report read ratio 0.0, empirical_ok True
        with pytest.raises(ValueError, match=rf"^trials must be at least 1: got {trials}$"):
            verify_contraction(self._spec(0.15), 0.15, trials=trials)

    @pytest.mark.parametrize("steps", [120, 1500])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear", "nonhomogeneous"])
    def test_ratio_is_the_summation_operator_loop_bit_for_bit(self, kind, steps):
        # 1500 steps take causal_convolve's transform path
        spec = stability_spec(kind, 0.01, 2.5, steps, desk_order())
        rep = verify_contraction(spec, 0.01, trials=4, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        grid = Grid(spec.a, steps + 1)
        worst = 0.0
        for _ in range(4):
            u = GridFn(grid, rng.uniform(-1.0, 1.0, grid.count))
            v = GridFn(grid, rng.uniform(-1.0, 1.0, grid.count))
            image = apply_summation_operator(spec, u).values - apply_summation_operator(spec, v).values
            worst = max(worst, float(np.max(np.abs(image))) / float(np.max(np.abs(u.values - v.values))))
        assert rep.empirical_ratio == worst > 0.0


class TestEvOperator:
    def test_zero_phi(self):
        grid = Grid(0.0, 10)
        out = ev_operator(
            GridFn.constant(grid, 0.5), GridFn.constant(grid, 0.0), 0.7, 0.0
        )
        assert np.max(np.abs(out.values)) == 0.0

    def test_unit_v_is_shifted_fractional_sum(self, rng):
        # with v = 1, the output at a+n is the plain order-mu sum of phi
        # evaluated at (a+n-1)+mu
        grid = Grid(0.3, 12)
        phi = GridFn(grid, rng.uniform(-1, 1, 12))
        mu = 0.6
        out = ev_operator(GridFn.constant(grid, 1.0), phi, mu, 0.3)
        summed = fractional_sum_fn(phi, mu)
        for n in range(1, 12):
            expect = float(summed.values[n - 1])
            assert float(out.values[n]) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_base_value_is_empty_sum(self, rng):
        grid = Grid(0.0, 8)
        out = ev_operator(
            GridFn.constant(grid, 0.9),
            GridFn(grid, rng.uniform(1, 2, 8)),
            0.5,
            0.0,
        )
        assert out.values[0] == 0.0

    def test_constant_v_on_monomial_is_power_rule_step(self):
        # one application sends the seed monomial to the next series term:
        # K * Gamma(eta)/Gamma(eta+mu) * (n + eta - 1 + (mu-1))^[eta+mu-1]
        mu, eta, K = 0.7, 0.85, 0.15
        grid = Grid(0.0, 14)
        phi = GridFn.from_callable(
            grid, lambda x: falling_factorial(x + eta - 1.0, eta - 1.0)
        )
        out = ev_operator(GridFn.constant(grid, K), phi, mu, 0.0)
        for n in range(1, 14):
            expect = (
                K
                * math.gamma(eta)
                / math.gamma(eta + mu)
                * falling_factorial(n + eta - 1.0 + (mu - 1.0), eta + mu - 1.0)
            )
            assert float(out.values[n]) == pytest.approx(expect, rel=1e-11, abs=1e-12)


class TestGronwallSeries:
    def test_zero_v_is_pure_monomial(self):
        order = desk_order()
        grid = Grid(0.3, 15)
        v = GridFn.constant(grid, 0.0)
        for n in range(15):
            got = gronwall_series(2.0, v, order, 0.3 + n)
            expect = 2.0 * taylor_monomial(
                order.eta - 1.0, 0.3 + n, 0.3 + 1.0 - order.eta
            )
            assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("const", [0.05, 0.1, 0.15])
    def test_constant_v_ties_to_mittag_leffler(self, const):
        order = desk_order()
        grid = Grid(0.0, 21)
        v = GridFn.constant(grid, const)
        p = MlParams(mu=order.mu, eta=order.eta, lam=const)
        for n in range(21):
            got = gronwall_series(1.0, v, order, float(n))
            expect = ml_plain(p, n + order.eta - 1.0)
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("const", [0.1, 0.5])
    def test_unit_orders_reduce_to_delta_exponential(self, const):
        # mu = eta = 1: the series telescopes to (1+v)^(x-a) exactly
        grid = Grid(0.0, 21)
        v = GridFn.constant(grid, const)
        for n in range(21):
            got = gronwall_series(1.0, v, (1.0, 1.0), float(n))
            expect = (1.0 + const) ** n
            err = abs(got - expect) / max(1.0, abs(expect))
            assert err < 1e-10

    def test_fractional_order_stays_below_exponential(self):
        # for mu < 1 the series is dominated by the delta exponential,
        # which is the one-sided content of the unit-eta reduction
        grid = Grid(0.0, 16)
        v = GridFn.constant(grid, 0.4)
        for mu in (0.3, 0.6, 0.9):
            for n in range(1, 16):
                got = gronwall_series(1.0, v, (mu, 1.0), float(n))
                assert got <= (1.4**n) * (1 + 1e-12)

    def test_requires_v_below_one(self):
        grid = Grid(0.0, 6)
        v = GridFn.constant(grid, 1.0)
        with pytest.raises(ValueError):
            gronwall_series(1.0, v, desk_order(), 3.0)

    @pytest.mark.parametrize(
        "u_a, v_5, match",
        [
            (1.0, math.nan, r"requires \|v\| < 1"),
            (1.0, -math.inf, r"requires \|v\| < 1"),
            (1.0, -1.0, r"requires \|v\| < 1"),
            (math.nan, 0.5, "u_a must be finite: got nan"),
            (-math.inf, 0.5, "u_a must be finite: got -inf"),
        ],
    )
    def test_bad_inputs_are_named(self, u_a, v_5, match):
        # a nan in v passed the max(|v|) >= 1 test and surfaced from the
        # engine as "right-hand side is nan at index 5"
        grid = Grid(0.0, 8)
        v = GridFn(grid, [0.5] * 5 + [v_5] + [0.5] * 2)
        with pytest.raises(ValueError, match=match):
            gronwall_series(u_a, v, desk_order(), 7.0)
        with pytest.raises(ValueError, match=match):
            gronwall_check(GridFn.constant(grid, 1.0), u_a, v, desk_order())


class TestGronwallCheck:
    def test_exact_solution_achieves_equality(self, rng):
        order = desk_order()
        n_pts = 14
        grid = Grid(0.3, n_pts)
        v = GridFn(grid, rng.uniform(0.0, 0.8, n_pts))
        u_vals = stepping_equality(1.0, v, order.mu, order.eta, n_pts)
        u = GridFn(grid, u_vals)
        res = gronwall_check(u, 1.0, v, order)
        assert res.all_ok
        gap = np.abs(u.values - res.series)
        assert float(np.max(gap / np.maximum(1.0, np.abs(res.series)))) < 1e-9

    def test_damped_solution_passes_strictly(self, rng):
        order = desk_order()
        n_pts = 12
        grid = Grid(0.3, n_pts)
        v = GridFn(grid, rng.uniform(0.0, 0.7, n_pts))
        u_vals = 0.9 * stepping_equality(1.0, v, order.mu, order.eta, n_pts)
        res = gronwall_check(GridFn(grid, u_vals), 1.0, v, order)
        assert res.all_ok
        assert np.all(u_vals[1:] < res.series[1:])

    def test_inflated_solution_violates_hypothesis(self, rng):
        order = desk_order()
        n_pts = 12
        grid = Grid(0.3, n_pts)
        v = GridFn(grid, rng.uniform(0.0, 0.7, n_pts))
        u_vals = 1.1 * stepping_equality(1.0, v, order.mu, order.eta, n_pts)
        res = gronwall_check(GridFn(grid, u_vals), 1.0, v, order)
        assert not np.all(res.hypothesis_ok)

    def test_comparison_monotonicity_on_random_pairs(self, rng):
        # any pair below/above the equality with ordered base values stays
        # ordered pointwise
        order = desk_order()
        n_pts = 12
        grid = Grid(0.0, n_pts)
        for _ in range(50):
            v = GridFn(grid, rng.uniform(0.0, 0.85, n_pts))
            u_a = rng.uniform(0.1, 2.0)
            w_a = u_a + rng.uniform(0.0, 1.0)
            u_vals = stepping_equality(u_a, v, order.mu, order.eta, n_pts)
            series = np.array(
                [gronwall_series(w_a, v, order, float(n)) for n in range(n_pts)]
            )
            assert np.all(series >= u_vals - 1e-10)


#: a residual of 1e-4 on the equation grid of TestUlamExperiments' spec
SMALL = GridFn(Grid(0.6, 9), np.full(9, 1e-4))


def weighed_by(psi):
    """ulam_experiment arguments of a Rassias run with SMALL and psi."""
    return {"epsilon": 1e-3, "perturbation": SMALL, "psi": psi}


class TestUlamExperiments:
    def _spec(self, k=0.15, zeta=1.0):
        return IvpSpec(0.3, 9, desk_order(), zeta, Nonlinear(lambda w, u: k * u))

    @pytest.mark.parametrize("over, ok", [(0.5, True), (2.0, False)])
    def test_rounding_allowance_is_a_floor_not_a_slack(self, monkeypatch, over, ok):
        # |u - v| may pass the envelope by the rounding of the two stored
        # trajectories, (eps/2)(|u| + |v|), and not by twice that
        spec = IvpSpec(0.3, 9, desk_order(), 1.0, Linear(0.15))
        dz = 2.0**-40
        exact = solve(spec)
        u = exact.values.values
        envelope = dz * ml_lattice(MlParams(0.7, spec.order.eta, lam=0.15), 10)
        v = u.copy()
        v[4] += envelope[4] + over * np.finfo(float).eps * abs(u[4])
        allowance = 0.5 * np.finfo(float).eps * (abs(u[4]) + abs(v[4]))
        beyond = (abs(u[4] - v[4]) - envelope[4]) / allowance
        assert (beyond <= 1.0) if ok else (beyond >= 1.5)
        perturbed = replace(exact, values=GridFn(exact.values.grid, v))
        monkeypatch.setattr(stability, "solve", lambda s: exact if s.zeta == 1.0 else perturbed)
        assert ulam_experiment(spec, 0.15, zeta_n=1.0 + dz).pointwise_ok is ok

    def test_unperturbed_run_has_zero_deviation(self):
        rep = ulam_experiment(self._spec(), 0.15, zeta_n=1.0)
        assert rep.deviation == 0.0
        assert rep.verdict and rep.pointwise_ok

    def test_initial_value_bound_holds_with_margin(self):
        for dz in (0.1, 0.01, 0.001):
            rep = ulam_experiment(self._spec(), 0.15, zeta_n=1.0 + dz)
            assert rep.kind == "initial"
            assert rep.certificate_applies
            assert rep.verdict and rep.pointwise_ok
            assert rep.deviation <= dz * rep.constant * (1 + 1e-9)

    def test_deviations_scale_linearly_in_initial_gap(self):
        ratios = []
        for dz in (0.1, 0.01, 0.001):
            rep = ulam_experiment(self._spec(), 0.15, zeta_n=1.0 + dz)
            ratios.append(rep.deviation / dz)
        assert max(ratios) / min(ratios) < 1.1

    def test_halving_sequence_converges(self):
        devs = []
        dz = 0.2
        for _ in range(6):
            rep = ulam_experiment(self._spec(), 0.15, zeta_n=1.0 + dz)
            devs.append(rep.deviation)
            dz /= 2.0
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_residual_perturbation_respects_certificate(self, rng):
        spec = self._spec()
        eps = 0.01
        base = Grid(0.3 + 1.0 - 0.7, 9)
        for _ in range(5):
            residual = GridFn(base, rng.uniform(-eps, eps, 9))
            rep = ulam_experiment(spec, 0.15, epsilon=eps, perturbation=residual)
            assert rep.kind == "residual"
            assert rep.certificate_applies
            assert rep.verdict
            assert rep.deviation <= eps * rep.constant * (1 + 1e-9)

    @pytest.mark.parametrize("mu", [0.3, 0.7])
    @pytest.mark.parametrize("k", [0.0, 1e-12, 1e-8, 0.15, 0.9])
    def test_residual_constant_against_mpmath(self, mu, k):
        # constant = max_n (E_[mu](K, n) - 1)/K over n <= steps, K = 0 read
        # as the limit; the difference (E - 1)/K cancels as K -> 0
        mp = pytest.importorskip("mpmath")
        steps = 40
        spec = IvpSpec(0.0, steps, HilferOrder(mu, 0.5), 1.0, Linear(k))
        residual = GridFn(Grid(1.0 - mu, steps), np.zeros(steps))
        rep = ulam_experiment(spec, k, epsilon=1e-3, perturbation=residual)

        def c(alpha, m):
            return mp.gamma(m + alpha) / (mp.gamma(m + 1) * mp.gamma(alpha))

        with mp.workdps(50):
            mu_m, k_m = mp.mpf(mu), mp.mpf(k)
            want = max(
                mp.fsum(k_m**j * c((j + 1) * mu_m + 1, n - 1 - j) for j in range(n))
                for n in range(1, steps + 1)
            )
        assert rep.kind == "residual"
        assert abs(rep.constant - want) <= 1e-13 * want

    def test_nonhomogeneous_residual_experiment(self, rng):
        mu, a, steps, eps = 0.7, 0.3, 9, 0.01
        forcing = GridFn(Grid(a + 1.0 - mu, steps), rng.uniform(-0.5, 0.5, steps))
        spec = IvpSpec(a, steps, desk_order(), 1.0, NonHomogeneous(0.15, forcing))
        residual = GridFn(Grid(a + 1.0 - mu, steps), rng.uniform(-eps, eps, steps))
        rep = ulam_experiment(spec, epsilon=eps, perturbation=residual)
        assert rep.kind == "residual"
        assert rep.k_source == "derived" and rep.k == 0.15
        assert rep.certificate_applies
        assert rep.verdict
        assert 0.0 < rep.deviation <= eps * rep.constant * (1 + 1e-9)

    def test_residual_perturbation_envelope_enforced(self):
        spec = self._spec()
        residual = GridFn.constant(Grid(0.6, 9), 0.02)
        with pytest.raises(ValueError):
            ulam_experiment(spec, 0.15, epsilon=0.01, perturbation=residual)

    def test_rassias_weighted_variant(self):
        spec = self._spec()
        psi = lambda t: 1.0 + 0.5 * max(t, 0.0)  # noqa: E731
        eps = 0.01
        args = [(0.6 + j) - 1.0 + 0.5 for j in range(9)]
        residual = GridFn(
            Grid(0.6, 9), np.array([eps * psi(arg) for arg in args])
        )
        rep = ulam_experiment(
            spec, 0.15, epsilon=eps, perturbation=residual, psi=psi
        )
        assert rep.kind == "residual"
        assert rep.psi_values is not None
        assert rep.verdict and rep.pointwise_ok

    def test_certificate_marked_non_applicable_above_threshold(self):
        spec = IvpSpec(
            0.3, 9, desk_order(), 1.0, Nonlinear(lambda w, u: (w - 0.3) * u)
        )
        rep = ulam_experiment(spec, 8.0, zeta_n=1.05)
        assert not rep.certificate_applies
        assert rep.deviation > 0.0  # experiment still ran

    def test_lipschitz_estimation_when_not_supplied(self):
        spec = IvpSpec(
            0.3, 9, desk_order(), 1.0, Nonlinear(lambda w, u: 0.1 * math.sin(u))
        )
        rep = ulam_experiment(spec, None, zeta_n=1.01)
        assert rep.k_source == "estimated"
        assert 0.05 < rep.k < 0.15  # sup |0.1 cos(u)| = 0.1
        assert rep.k == per_point_lipschitz(spec)

    @pytest.mark.parametrize("a", [0.3, 2.5, 1e10 + 0.3])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda w, u: 0.1 * math.sin(u),
            lambda w, u: 0.05 * math.cos(w) * u * u,
            lambda w, u: 0.1 * math.tanh(u + 1e-3 * (w % 7.0)),
        ],
        ids=["sin", "cos-w-square", "tanh"],
    )
    def test_lipschitz_estimate_is_the_per_point_loop_to_the_bit(self, fn, a):
        spec = IvpSpec(a, 9, desk_order(), 1.0, Nonlinear(fn))
        rep = ulam_experiment(spec, None, zeta_n=1.01)
        assert rep.k == per_point_lipschitz(spec)

    def test_lipschitz_estimate_refuses_a_nan_slope(self):
        # nan above the trajectory's u range, from the fourth point on
        fn = lambda w, u: 0.1 * math.sin(u) if u <= 1.0 or w < 3.0 else math.nan  # noqa: E731
        spec = IvpSpec(0.3, 9, desk_order(), 0.9, Nonlinear(fn))
        with pytest.raises(NonFiniteError, match="sampled range"):
            ulam_experiment(spec, None, zeta_n=0.91)

    def test_lipschitz_estimate_names_an_overflow(self):
        # the trajectory grows to about 1e104, so the padded u levels cube
        # to inf; inf - inf was reported as a nan right-hand side
        spec = IvpSpec(0.0, 60, HilferOrder(0.5, 0.5), -0.6, Nonlinear(lambda w, u: -u * u * u - 20.0))
        residual = GridFn(Grid(0.5, 60), np.full(60, 1e-4))
        with pytest.raises(OverflowError, match=r"sampled range of u, -4\.3\d*e\+103 to 2\.1\d*e\+104"):
            ulam_experiment(spec, None, epsilon=1e-3, perturbation=residual)

    def test_asserted_k_recorded(self):
        rep = ulam_experiment(self._spec(), 0.15, zeta_n=1.01)
        assert rep.k_source == "asserted"
        assert rep.k == 0.15

    @pytest.mark.parametrize(
        "k, run, match",
        [
            # a negative k built the envelope at lam = k, certificate applying
            (-0.5, {"zeta_n": 1.01}, "k must be finite and nonnegative: got -0.5"),
            (math.nan, {"zeta_n": 1.01}, "k must be finite and nonnegative: got nan"),
            (math.inf, {"zeta_n": 1.01}, "k must be finite and nonnegative: got inf"),
            (0.15, {"epsilon": math.nan, "zeta_n": 1.01}, "epsilon must be finite and nonnegative: got nan"),
            (0.15, {"epsilon": math.inf, "perturbation": SMALL}, "epsilon must be .* got inf"),
            (0.15, {"epsilon": -1e-3, "perturbation": SMALL}, "epsilon must be .* got -0.001"),
            # a non-finite psi made the constant nan
            (0.15, weighed_by(lambda t: math.nan), r"psi\(0\.1\d*\) = nan"),
            (0.15, weighed_by(lambda t: math.inf), r"psi\(0\.1\d*\) = inf"),
            (0.15, weighed_by(lambda t: float(t < 3.0)), r"psi\(3\.1\d*\) = 0\.0"),
        ],
        ids=["k-negative", "k-nan", "k-inf", "eps-nan", "eps-inf", "eps-negative"]
        + ["psi-nan", "psi-inf", "psi-zero"],
    )
    def test_bad_inputs_are_named(self, k, run, match):
        with pytest.raises(ValueError, match=match):
            ulam_experiment(self._spec(), k, **run)


def neumann_series(u_a, v: GridFn, mu, eta, n_pts):
    """Explicit Neumann iteration: the seed plus n_pts-1 passes of ev_operator."""
    a = v.base
    seed = np.array([falling_factorial(i + eta - 1.0, eta - 1.0) for i in range(n_pts)])
    seed /= math.gamma(eta)
    phi = GridFn(Grid(a, n_pts), u_a * seed)
    total, size = phi.values.copy(), np.abs(phi.values)
    for _ in range(1, n_pts):
        phi = ev_operator(v, phi, mu, a)
        total += phi.values
        size += np.abs(phi.values)
    return total, size


class TestGronwallSingleSolve:
    TOL = 1e-12  # relative to the sum of |Neumann terms|

    @pytest.mark.parametrize(
        "order", [HilferOrder(0.7, 0.5), HilferOrder(0.2, 0.0), (1.0, 1.0), (0.4, 1.0)]
    )
    def test_series_matches_neumann_iteration(self, order, rng):
        mu, eta = (order.mu, order.eta) if isinstance(order, HilferOrder) else order
        n_pts = 40
        grid = Grid(0.3, n_pts)
        v = GridFn(grid, rng.uniform(-0.3, 0.9, n_pts))
        u = GridFn(grid, np.zeros(n_pts))
        got = gronwall_check(u, 1.7, v, order).series
        expect, size = neumann_series(1.7, v, mu, eta, n_pts)
        assert np.all(np.abs(got - expect) <= self.TOL * size)
        for n in (0, 1, 17, n_pts - 1):
            assert gronwall_series(1.7, v, order, 0.3 + n) == got[n]

    def test_series_past_the_float_range_reads_inf(self):
        grid = Grid(0.0, 1200)
        v = GridFn.constant(grid, 0.99)
        res = gronwall_check(GridFn.constant(grid, 1.0), 1.0, v, (1.0, 1.0))
        assert np.isinf(res.series[-1]) and res.series[-1] > 0
        assert np.all(np.isfinite(res.series[:100]))
        assert res.all_ok



def stability_cases(seed=9, count=9):
    """(K, mu, nu, base, steps): K stratified over [0, 0.9) of the existence
    bound, nu at 0, inside and at 1, bases 0, 2.5 and 1e10 + 0.3, steps up
    to 120."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        mu = round(float(rng.uniform(0.1, 0.95)), 4)
        nu = (0.0, round(float(rng.uniform(0.1, 0.9)), 4), 1.0)[i % 3]
        base = (0.0, 2.5, 1e10 + 0.3)[i // 3]
        steps = int(rng.integers(1, 121))
        frac = 0.9 * (i + rng.uniform()) / count
        cases.append((float(f"{frac * existence_bound(0.0, steps, mu):.4g}"), mu, nu, base, steps))
    return cases


RHS_KINDS = ("linear", "nonlinear", "nonhomogeneous")
#: initial gaps of the sweep; at 1e-15 the two solves' roundoff exceeds dz * C
INITIAL_GAPS = (1e-1, 1e-3, 1e-6)


def initial_params():
    for case in stability_cases():
        for kind in RHS_KINDS:
            for dz in INITIAL_GAPS:
                yield (*case, kind, dz)


def stability_spec(kind, k, base, steps, order):
    """The sweep's IVP of one right-hand side kind, Lipschitz with constant K."""
    if kind == "linear":
        return IvpSpec(base, steps, order, 1.0, Linear(k))
    if kind == "nonlinear":
        rhs = Nonlinear(lambda w, u: k * math.sin(u) + 0.3 * math.cos(w - base))
        return IvpSpec(base, steps, order, -0.6, rhs)
    forcing = np.random.default_rng(steps).uniform(-0.5, 0.5, steps)
    rhs = NonHomogeneous(k, GridFn(Grid(base + 1.0 - order.mu, steps), forcing))
    return IvpSpec(base, steps, order, 0.8, rhs)


class TestStabilitySweep:
    """Gronwall and Ulam verdicts over seeded strata of the parameter space."""

    TOL = 1e-12  # relative to the series; every term is nonnegative
    EPS = 1e-3

    @pytest.mark.parametrize("k, mu, nu, base, steps", stability_cases())
    def test_gronwall_verdicts(self, k, mu, nu, base, steps):
        order = HilferOrder(mu, nu)
        grid = Grid(base, steps + 1)
        v = GridFn(grid, np.random.default_rng(steps).uniform(0.0, k, steps + 1))
        equality = stepping_equality(1.3, v, mu, order.eta, steps + 1)
        res = gronwall_check(GridFn(grid, equality), 1.3, v, order)
        assert res.all_ok
        assert np.all(np.abs(equality - res.series) <= self.TOL * res.series)
        damped = gronwall_check(GridFn(grid, 0.9 * equality), 1.3, v, order)
        assert damped.all_ok
        assert np.all(0.9 * equality < damped.series)
        inflated = gronwall_check(GridFn(grid, 1.1 * equality), 1.3, v, order)
        assert not np.all(inflated.hypothesis_ok)

    @pytest.mark.parametrize("k, mu, nu, base, steps, kind, dz", initial_params())
    def test_initial_verdicts(self, k, mu, nu, base, steps, kind, dz):
        spec = stability_spec(kind, k, base, steps, HilferOrder(mu, nu))
        rep = ulam_experiment(spec, k, zeta_n=spec.zeta + dz)
        assert rep.kind == "initial" and rep.certificate_applies
        assert rep.verdict and rep.pointwise_ok

    @pytest.mark.parametrize("kind", RHS_KINDS)
    @pytest.mark.parametrize("k, mu, nu, base, steps", stability_cases())
    def test_residual_verdicts(self, k, mu, nu, base, steps, kind):
        spec = stability_spec(kind, k, base, steps, HilferOrder(mu, nu))
        eq_base = base + 1.0 - mu
        rng = np.random.default_rng(steps + 1)
        plain = GridFn(Grid(eq_base, steps), rng.uniform(-self.EPS, self.EPS, steps))
        rep = ulam_experiment(spec, k, epsilon=self.EPS, perturbation=plain)
        assert rep.kind == "residual" and rep.certificate_applies
        assert rep.verdict and rep.pointwise_ok

        # Rassias: the residual scaled by a positive psi at y - 1 + nu
        def psi(t):
            return 1.5 + math.cos(0.7 * t)

        weights = np.array([psi(eq_base + j - 1.0 + nu) for j in range(steps)])
        weighted = GridFn(plain.grid, plain.values * weights)
        rep = ulam_experiment(spec, k, epsilon=self.EPS, perturbation=weighted, psi=psi)
        assert rep.psi_values is not None
        assert rep.verdict and rep.pointwise_ok

    @pytest.mark.parametrize("kind", RHS_KINDS)
    @pytest.mark.parametrize("steps", [9, 40, 200])
    def test_zero_residual_gives_zero_deviation(self, steps, kind):
        # both systems are solved by one route, so nothing but the
        # perturbation can separate them
        spec = stability_spec(kind, 0.1, 0.3, steps, desk_order())
        zero = GridFn(Grid(0.3 + 1.0 - spec.order.mu, steps), np.zeros(steps))
        rep = ulam_experiment(spec, 0.1, epsilon=0.0, perturbation=zero)
        assert rep.deviation == 0.0
        assert rep.verdict and rep.pointwise_ok


def closure_route_deviation(spec, g, perturbation):
    """ulam_experiment's residual deviation by the route it once took: each
    system a Nonlinear closure of g(w, u, x) less the residual at the
    equation point x = w + 1 - mu, through solve()."""
    mu = spec.order.mu

    def system(residual):
        def fn(w, u):
            x = w + 1.0 - mu
            return g(w, u, x) - residual(x)

        return solve(replace(spec, rhs=Nonlinear(fn))).values.values

    exact = system(GridFn(perturbation.grid, np.zeros(perturbation.count)))
    perturbed = system(perturbation)
    n = min(len(exact), len(perturbed))
    return float(np.max(np.abs(exact[:n] - perturbed[:n]))) if n else math.inf


def scalar_g(spec):
    """The right-hand side as g(w, u, x): w = x + mu - 1, forcing sampled at x."""
    rhs = spec.rhs
    if isinstance(rhs, Linear):
        return lambda w, u, x: -rhs.lam * u
    if isinstance(rhs, Nonlinear):
        return lambda w, u, x: rhs.fn(w, u)
    return lambda w, u, x: -rhs.lam * u - rhs.forcing(x)


class TestResidualRoute:
    """The engine stepping the right-hand side less the residual is the
    Nonlinear closure it replaced, bit for bit."""

    EPS = 1e-3

    @pytest.mark.parametrize("kind", RHS_KINDS)
    @pytest.mark.parametrize("k, mu, nu, base, steps", stability_cases())
    def test_deviation_is_the_closure_route(self, k, mu, nu, base, steps, kind):
        spec = stability_spec(kind, k, base, steps, HilferOrder(mu, nu))
        eq_base = base + 1.0 - mu
        rng = np.random.default_rng(steps + 2)
        plain = GridFn(Grid(eq_base, steps), rng.uniform(-self.EPS, self.EPS, steps))
        rep = ulam_experiment(spec, k, epsilon=self.EPS, perturbation=plain)
        assert rep.deviation == closure_route_deviation(spec, scalar_g(spec), plain)

        def psi(t):
            return 1.5 + math.cos(0.7 * t)

        weights = np.array([psi(eq_base + j - 1.0 + nu) for j in range(steps)])
        weighted = GridFn(plain.grid, plain.values * weights)
        rep = ulam_experiment(spec, k, epsilon=self.EPS, perturbation=weighted, psi=psi)
        assert rep.deviation == closure_route_deviation(spec, scalar_g(spec), weighted)

    @pytest.mark.parametrize(
        "rhs",
        [Linear(50.0), Nonlinear(lambda w, u: -u * u * u - 10.0)],
        ids=["linear-growth", "cubic-blowup"],
    )
    def test_overflowing_systems_match_the_closure_route(self, rhs):
        spec = IvpSpec(0.0, 400, HilferOrder(0.3, 0.5), 1.0, rhs)
        grid = Grid(0.7, 400)
        perturbation = GridFn(grid, 0.5 * np.cos(np.arange(400.0)))
        rep = ulam_experiment(spec, 0.5, epsilon=0.5, perturbation=perturbation)
        assert solve(spec).meta.overflow_at is not None
        assert rep.deviation == closure_route_deviation(spec, scalar_g(spec), perturbation)


_SPEC = IvpSpec(0.0, 6, HilferOrder(0.5, 0.5), 1.0, Linear(0.1))
_HALVES = GridFn(Grid(0.0, 6), np.full(6, 0.5))
_OFF_BASE = GridFn(Grid(1.0, 6), np.full(6, 0.5))
_RESIDUAL = GridFn(Grid(0.5, 6), np.zeros(6))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: existence_bound(0.0, 5.0, 1.0), ValueError, r"mu must lie in \(0, 1\)"),
        (lambda: gronwall_series(1.0, _HALVES, (1.5, 0.5), 3.0), ValueError, r"mu must lie in \(0, 1\]"),
        (lambda: gronwall_series(1.0, _HALVES, (0.5, 1.5), 3.0), ValueError, r"eta must lie in \(0, 1\]"),
        (lambda: ev_operator(_HALVES, _OFF_BASE, 0.5, 0.0), CoverageError, "must be based at 0.0"),
        (lambda: gronwall_check(_OFF_BASE, 1.0, _HALVES, (0.5, 0.5)), CoverageError, "u must be based at 0.0"),
        (lambda: ulam_experiment(_SPEC, 0.1), ValueError, "exactly one of"),
        (lambda: ulam_experiment(_SPEC, 0.1, zeta_n=1.1, perturbation=_RESIDUAL), ValueError, "exactly one of"),
        (lambda: ulam_experiment(_SPEC, 0.1, perturbation=GridFn(Grid(0.5, 5), np.zeros(5))), CoverageError,
         "residual must cover 6 points"),
        (lambda: ulam_experiment(_SPEC, 0.1, perturbation=GridFn(Grid(0.0, 6), np.zeros(6))), CoverageError,
         "residual must cover 6 points"),
    ],
    ids=["existence-order-one", "series-raw-mu", "series-raw-eta", "ev-operator-off-base",
         "gronwall-check-off-base", "ulam-neither", "ulam-both", "ulam-residual-short",
         "ulam-residual-off-base"],
)
def test_documented_errors(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
