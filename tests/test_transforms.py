"""Delta exponential and Laplace transform identities.

Closed geometric series are the oracles for the transform itself; the
operational identities are checked by evaluating both sides through
independent code paths (truncated sums of derived grid functions versus
algebraic expressions in the transform of f).
"""

import logging
import math

import numpy as np
import pytest

from hilfer_dfc import (
    Grid,
    GridFn,
    HilferOrder,
    LaplaceCtl,
    RegressivityError,
    TransformDomainError,
    TruncationError,
    caputo_difference_fn,
    delta_exp,
    delta_laplace,
    fractional_sum_fn,
    hilfer_difference_fn,
    laplace_base_shift_check,
    laplace_of_fractional_sum_check,
    laplace_of_hilfer_check,
    laplace_of_integer_difference_check,
    rl_difference_fn,
)
from hilfer_dfc.operators import _FFT_MIN


def bounded_oscillator(count=400, ratio=1.2):
    grid = Grid(0.0, count)
    return GridFn.from_callable(
        grid, lambda x: ratio**x * (1.0 + 0.3 * math.sin(0.7 * x))
    )


CTL = LaplaceCtl(r=1.35, tol=1e-10)


class TestDeltaExp:
    def test_constant_rate(self):
        assert delta_exp(0.5, 7.0, 0.0) == pytest.approx(1.5**7, rel=1e-13)

    def test_empty_product(self):
        assert delta_exp(123.0, 4.0, 4.0) == 1.0

    def test_linear_rate(self):
        assert delta_exp(lambda t: t, 3.0, 0.0) == pytest.approx(6.0)

    def test_grid_fn_rate(self):
        p = GridFn.from_callable(Grid(0.0, 10), lambda t: 0.1 * t)
        expect = 1.0 * 1.1 * 1.2
        assert delta_exp(p, 3.0, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_backward_direction_is_reciprocal(self):
        forward = delta_exp(0.25, 6.0, 2.0)
        backward = delta_exp(0.25, 2.0, 6.0)
        assert forward * backward == pytest.approx(1.0, rel=1e-13)

    def test_regressivity_violation(self):
        with pytest.raises(RegressivityError):
            delta_exp(-1.0, 3.0, 0.0)


class TestDeltaLaplace:
    def test_constant_is_one_over_y(self):
        f = GridFn.constant(Grid(0.0, 400), 1.0)
        for y in (0.5, 2.0, 5.0):
            got = delta_laplace(f, y, LaplaceCtl(r=1.05, tol=1e-12))
            assert got.value == pytest.approx(1.0 / y, rel=1e-10)
            assert got.tail_bound < 1e-12

    def test_zero_function(self):
        f = GridFn.constant(Grid(0.0, 50), 0.0)
        assert delta_laplace(f, 2.0, LaplaceCtl(r=1.1, tol=1e-8)).value == 0.0

    def test_geometric_oracle(self):
        # sum over k of 2^k (1+y)^{-(k+1)} = 1/(y-1) at y = 3
        f = GridFn.from_callable(Grid(0.0, 200), lambda x: 2.0**x)
        got = delta_laplace(f, 3.0, LaplaceCtl(r=2.2, tol=1e-12))
        assert got.value == pytest.approx(0.5, rel=1e-10)

    def test_domain_precondition(self):
        f = GridFn.constant(Grid(0.0, 50), 1.0)
        with pytest.raises(TransformDomainError):
            delta_laplace(f, 0.2, LaplaceCtl(r=1.5))

    def test_coverage_exhaustion_raises(self):
        f = GridFn.constant(Grid(0.0, 5), 1.0)
        with pytest.raises(TruncationError):
            delta_laplace(f, 0.5, LaplaceCtl(r=1.05, tol=1e-12))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises(self, bad):
        # max(growth, nan) dropped the nan and the sum came back as nan
        vals = np.ones(200)
        vals[3] = bad
        with pytest.raises(ValueError, match=r"finite samples: f\[3\] is"):
            delta_laplace(GridFn(Grid(0.0, 200), vals), 2.0)

    def test_non_finite_sample_past_the_cut_is_not_read(self):
        vals = np.full(400, 1.0)
        vals[-1] = math.nan
        res = delta_laplace(GridFn(Grid(0.0, 400), vals), 2.0, LaplaceCtl(r=1.1, tol=1e-10))
        assert res.terms < 399 and res.value == pytest.approx(0.5, abs=1e-9)

    def test_fast_growth_is_flagged(self):
        # actual growth 2.6 exceeds |1+y| = 2.5: the sum diverges, the
        # running order estimate keeps climbing, and the evaluation must
        # fail loudly instead of returning a truncated value
        f = GridFn.from_callable(Grid(0.0, 300), lambda x: 2.6**x)
        with pytest.raises(TruncationError):
            delta_laplace(f, 1.5, LaplaceCtl(r=1.1, tol=1e-10))

    def test_linearity(self):
        grid = Grid(0.0, 300)
        rng = np.random.default_rng(5)
        f = GridFn(grid, rng.uniform(-1, 1, 300))
        g = GridFn(grid, rng.uniform(-1, 1, 300))
        combo = GridFn(grid, 2.0 * f.values - 3.0 * g.values)
        ctl = LaplaceCtl(r=1.05, tol=1e-12)
        lhs = delta_laplace(combo, 2.0, ctl).value
        rhs = 2.0 * delta_laplace(f, 2.0, ctl).value - 3.0 * delta_laplace(g, 2.0, ctl).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestTransformIdentities:
    @pytest.mark.parametrize("y", [1.5, 2.0, 3.0])
    def test_fractional_sum_identity(self, y):
        f = bounded_oscillator()
        for mu in (0.3, 0.5, 0.8):
            lhs, rhs = laplace_of_fractional_sum_check(f, mu, y, CTL)
            assert abs(lhs - rhs) < 1e-8

    def test_fractional_sum_identity_constant_oracle(self):
        # f = 1, mu = 1/2, y = 2: both sides equal sqrt(3/2) / 2
        f = GridFn.constant(Grid(0.0, 400), 1.0)
        ctl = LaplaceCtl(r=1.05, tol=1e-11)
        lhs, rhs = laplace_of_fractional_sum_check(f, 0.5, 2.0, ctl)
        oracle = math.sqrt(1.5) * 0.5
        assert lhs == pytest.approx(oracle, rel=1e-9)
        assert rhs == pytest.approx(oracle, rel=1e-9)

    def test_order_zero_sum_is_plain_transform(self):
        f = bounded_oscillator()
        lhs, rhs = laplace_of_fractional_sum_check(f, 0.0, 2.0, CTL)
        assert lhs == rhs

    @pytest.mark.parametrize("y", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [1, 2])
    def test_integer_difference_identity(self, y, m):
        f = bounded_oscillator()
        lhs, rhs = laplace_of_integer_difference_check(f, m, y, CTL)
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("y", [1.5, 2.0, 3.0])
    def test_hilfer_identity(self, y):
        f = bounded_oscillator()
        for mu, nu in ((0.7, 0.5), (0.3, 0.25), (0.9, 0.75)):
            lhs, rhs = laplace_of_hilfer_check(f, HilferOrder(mu, nu), y, CTL)
            assert abs(lhs - rhs) < 1e-8

    def test_hilfer_identity_type_zero_is_rl_formula(self):
        # at nu = 0 both the operator and the closed form are the
        # order-mu difference transform identity
        f = bounded_oscillator()
        mu, y = 0.7, 2.0
        lhs, rhs = laplace_of_hilfer_check(f, HilferOrder(mu, 0.0), y, CTL)
        lhs_rl = delta_laplace(rl_difference_fn(f, mu), y, CTL).value
        f_hat = delta_laplace(f, y, CTL).value
        inner = fractional_sum_fn(f, 1.0 - mu)
        rhs_rl = y**mu * (y + 1.0) ** (1.0 - mu) * f_hat - float(inner.values[0])
        assert lhs == pytest.approx(lhs_rl, abs=1e-10)
        assert rhs == pytest.approx(rhs_rl, abs=1e-10)
        assert abs(lhs - rhs) < 1e-8

    def test_hilfer_identity_type_one_is_caputo_formula(self):
        f = bounded_oscillator()
        mu, y = 0.7, 2.0
        lhs, rhs = laplace_of_hilfer_check(f, HilferOrder(mu, 1.0), y, CTL)
        lhs_cap = delta_laplace(caputo_difference_fn(f, mu), y, CTL).value
        f_hat = delta_laplace(f, y, CTL).value
        rhs_cap = (
            y**mu * (y + 1.0) ** (1.0 - mu) * f_hat
            - ((y + 1.0) / y) ** (1.0 - mu) * float(f.values[0])
        )
        assert lhs == pytest.approx(lhs_cap, abs=1e-10)
        assert rhs == pytest.approx(rhs_cap, abs=1e-10)
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("y", [1.5, 2.0, 3.0])
    def test_base_shift(self, y):
        f = bounded_oscillator()
        lhs, rhs = laplace_base_shift_check(f, y, CTL)
        assert abs(lhs - rhs) < 1e-8


class TestZeroPrefix:
    def test_ramp_is_inverse_square(self):
        ramp = GridFn.from_callable(Grid(0.0, 400), lambda x: x)
        for y in (2.0, 3.5, 9.0):
            assert abs(delta_laplace(ramp, y).value - 1.0 / y**2) < 1e-10

    def test_delayed_step(self):
        # sum_{x >= 2} 3^-(x+1) = 1/18
        f = GridFn(Grid(0.0, 400), np.r_[0.0, 0.0, np.ones(398)])
        assert abs(delta_laplace(f, 2.0).value - 1.0 / 18.0) < 1e-10

    def test_all_zero_input_transforms_to_zero(self):
        res = delta_laplace(GridFn.constant(Grid(0.0, 50), 0.0), 2.0)
        assert res.value == 0.0

    def test_zero_prefix_longer_than_max_terms_raises(self):
        f = GridFn(Grid(0.0, 100_050), np.r_[np.zeros(100_000), np.ones(50)])
        with pytest.raises(TruncationError):
            delta_laplace(f, 2.0)


def _whole_grid_lhs(check, f, param, y, ctl):
    """The identity's lhs from the operator applied to the whole grid."""
    if check is laplace_of_fractional_sum_check:
        return delta_laplace(fractional_sum_fn(f, param), y, ctl).value
    return delta_laplace(hilfer_difference_fn(f, param), y, ctl).value


CHECKS = [
    (laplace_of_fractional_sum_check, lambda mu, nu: mu),
    (laplace_of_hilfer_check, HilferOrder),
]


class TestPrefixTransform:
    """The checks apply their operator to the prefix of f the tail bound
    needs; on a causal operator that reads the whole-grid samples."""

    @pytest.mark.parametrize("y", [1.5, 2.0, 3.0, 50.0])
    @pytest.mark.parametrize("check, order", CHECKS)
    def test_direct_grids_give_the_whole_grid_bits(self, y, check, order):
        # at y = 50 the bound needs 7 terms at unit growth: the shortest
        # first prefix, 32 samples
        rng = np.random.default_rng([11, int(10 * y)])
        for ctl in (LaplaceCtl(), CTL, LaplaceCtl(r=2.2, tol=1e-12)):
            if abs(1.0 + y) <= ctl.r:
                continue
            for nu in (0.0, float(rng.uniform(0.2, 0.8)), 1.0):
                n = int(rng.integers(600, _FFT_MIN))
                mu = float(rng.uniform(0.1, 0.9))
                growth = float(rng.uniform(1.0, 1.3))
                # a large scale pushes the bound past the first prefix
                scale = float(rng.choice([1.0, 1e12]))
                values = scale * growth ** np.arange(n) * rng.uniform(-1.0, 1.0, n)
                f = GridFn(Grid(float(rng.choice([0.0, 0.5])), n), values)
                param = order(mu, nu)
                lhs, _ = check(f, param, y, ctl)
                assert lhs == _whole_grid_lhs(check, f, param, y, ctl), (n, mu, nu)

    @pytest.mark.parametrize("check, order", CHECKS)
    def test_long_grid_stays_on_short_prefixes(self, check, order, caplog):
        n = 20000
        f = GridFn(Grid(0.0, n), np.random.default_rng(3).uniform(-1.0, 1.0, n))
        param = order(0.6, 0.3)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            lhs, _ = check(f, param, 2.0)
        sizes = [r.args[0] for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert all(size < _FFT_MIN for size in sizes), sizes
        whole = _whole_grid_lhs(check, f, param, 2.0, LaplaceCtl())
        assert abs(lhs - whole) <= 1e-13 * abs(whole)

    @pytest.mark.parametrize("check, order", CHECKS)
    def test_zero_prefix_of_the_output_is_not_zero_everywhere(self, check, order):
        # the first 300 outputs are zero: prefixes of 64, 128 and 256
        # samples say nothing, and the one of 512 reaches the ones
        f = GridFn(Grid(0.0, 1000), np.r_[np.zeros(300), np.ones(700)])
        param = order(0.4, 0.5)
        lhs, _ = check(f, param, 2.0)
        assert lhs != 0.0 and lhs == _whole_grid_lhs(check, f, param, 2.0, LaplaceCtl())

    @pytest.mark.parametrize("check, order", CHECKS)
    @pytest.mark.parametrize("ratio, y", [(1.2, 0.501), (1.8, 0.7)])
    def test_bound_missed_on_the_whole_grid_raises(self, check, order, ratio, y):
        # |1+y| just above r needs more terms than the grid holds; growth
        # 1.8 past |1+y| = 1.7 misses the bound on every prefix too
        f = GridFn.from_callable(Grid(0.0, 1000), lambda x: ratio**x)
        with pytest.raises(TruncationError):
            check(f, order(0.4, 0.5), y)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LaplaceCtl(r=1.0), ValueError, "r must exceed 1"),
        (lambda: delta_exp(0.1, 2.5, 0.0), ValueError, "not an integer step count"),
        (lambda: laplace_of_hilfer_check(bounded_oscillator(), HilferOrder(0.5, 0.5), -3.0, CTL),
         TransformDomainError, r"need \(y\+1\)/y > 0"),
        (lambda: laplace_of_integer_difference_check(bounded_oscillator(), 0, 2.0), ValueError,
         "m must be a positive integer"),
    ],
    ids=["order-bound-one", "fractional-step-count", "hilfer-closed-form-at-negative-y", "difference-order-zero"],
)
def test_documented_errors(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
