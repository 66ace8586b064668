"""Fractional sums and differences against brute-force kernel oracles.

Oracles here are written straight from the defining sums with explicit
gamma-function products, independently of the convolution implementation:
the fractional sum as a term-by-term monomial sum, the order-mu
difference additionally via its unified single-sum form with a negative
order kernel, and the two-parameter difference as a fully expanded
double sum.
"""

import itertools
import logging
import math

import numpy as np
import pytest

from hilfer_dfc import (
    Grid,
    GridFn,
    HilferOrder,
    OffGridError,
    causal_convolve,
    caputo_difference,
    caputo_difference_fn,
    delta_sum,
    falling_factorial,
    fractional_sum,
    fractional_sum_fn,
    hilfer_difference,
    hilfer_difference_fn,
    rl_difference,
    rl_difference_fn,
    sum_kernel,
    taylor_monomial,
)
from hilfer_dfc.operators import _FFT_MIN

from conftest import random_grid_fn


def oracle_fractional_sum(f: GridFn, mu: float, x: float) -> float:
    """Term-by-term defining sum: sum_{tau=a}^{x-mu} h_{mu-1}(x, tau+1) f(tau)."""
    a = f.base
    terms = round(x - mu - a) + 1
    total = 0.0
    for i in range(terms):
        tau = a + i
        total += taylor_monomial(mu - 1.0, x, tau + 1.0) * f(tau)
    return total


def oracle_rl_single_sum(f: GridFn, mu: float, x: float) -> float:
    """Unified single-sum form: sum_{tau=a}^{x+mu} h_{-mu-1}(x, tau+1) f(tau)."""
    a = f.base
    terms = round(x + mu - a) + 1
    total = 0.0
    for i in range(terms):
        tau = a + i
        total += taylor_monomial(-mu - 1.0, x, tau + 1.0) * f(tau)
    return total


def oracle_hilfer_double_sum(f: GridFn, order: HilferOrder, x: float) -> float:
    """Composition expanded into one explicit double sum over both kernels."""
    a = f.base
    b = order.inner_sum_order
    c = order.outer_sum_order
    assert b > 0 and c > 0, "oracle covers the strictly interior types"

    def inner_sum(t1: float) -> float:
        total = 0.0
        for i in range(round(t1 - b - a) + 1):
            tau = a + i
            total += taylor_monomial(b - 1.0, t1, tau + 1.0) * f(tau)
        return total

    total = 0.0
    for i in range(round(x - c - (a + b)) + 1):
        tau2 = a + b + i
        stepped = inner_sum(tau2 + 1.0) - inner_sum(tau2)
        total += taylor_monomial(c - 1.0, x, tau2 + 1.0) * stepped
    return total


class TestFractionalSum:
    def test_constant_against_defining_sum_oracle(self):
        f = GridFn.constant(Grid(0.0, 10), 1.0)
        got = fractional_sum(f, 0.5, 2.5)
        oracle = oracle_fractional_sum(f, 0.5, 2.5)
        assert oracle == pytest.approx(1.875, rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_base_point_value_is_first_sample(self):
        f = GridFn.from_callable(Grid(1.2, 6), lambda x: x**2)
        for mu in (0.2, 0.5, 0.9):
            assert fractional_sum(f, mu, 1.2 + mu) == pytest.approx(f(1.2), rel=1e-13)

    def test_order_one_reduces_to_delta_sum(self, rng):
        f = random_grid_fn(rng, base=0.5, count=12)
        for j in range(1, 12):
            got = fractional_sum(f, 1.0, 0.5 + 1.0 + (j - 1))
            expect = delta_sum(f, 0.5, 0.5 + j)
            assert got == pytest.approx(expect, rel=1e-13, abs=1e-13)

    def test_zero_function(self):
        f = GridFn.constant(Grid(0.0, 8), 0.0)
        for j in range(8):
            assert fractional_sum(f, 0.7, 0.7 + j) == 0.0

    def test_order_zero_is_identity(self, rng):
        f = random_grid_fn(rng)
        assert fractional_sum_fn(f, 0.0) is f
        assert fractional_sum(f, 0.0, f.base + 3) == f(f.base + 3)

    def test_whole_grid_matches_pointwise(self, rng):
        f = random_grid_fn(rng, base=0.3, count=20)
        summed = fractional_sum_fn(f, 0.6)
        for j in range(20):
            x = summed.base + j
            assert float(summed.values[j]) == pytest.approx(
                oracle_fractional_sum(f, 0.6, x), rel=1e-12, abs=1e-12
            )

    def test_off_grid_point_raises(self, rng):
        f = random_grid_fn(rng)
        with pytest.raises(OffGridError):
            fractional_sum(f, 0.5, 1.0)  # not on base+0.5 lattice

    def test_power_rule(self, rng):
        # summed monomial equals the closed-form gamma-ratio monomial
        a = 0.3
        for _ in range(10):
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
                assert float(summed.values[j]) == pytest.approx(
                    closed, rel=1e-10, abs=1e-12
                )


def shaped_input(rng, kind, n):
    """Random signs times a flat, an e^60-growing or an e^-30-decaying profile."""
    exponent = {"random": 0.0, "growing": 60.0, "decaying": -30.0}[kind]
    return rng.uniform(-1.0, 1.0, n) * np.exp(np.linspace(0.0, exponent, n))


class TestCausalConvolve:
    @pytest.mark.parametrize("n", [_FFT_MIN - 1, _FFT_MIN, 3000, 20000])
    def test_per_point_error_against_fsum_oracle(self, rng, n):
        # each product rounds once, so fsum of the products is within
        # eps * conv(|k|, |f|) of the exact sum at every point
        for mu in (0.1, 0.5, 0.9):
            kernel = sum_kernel(mu, n)
            for kind in ("random", "growing", "decaying"):
                f = shaped_input(rng, kind, n)
                out = causal_convolve(kernel, f)
                assert out.shape == (n,)
                points = np.unique(
                    np.concatenate(([0, 1, n - 1], rng.integers(0, n, 20)))
                )
                for j in points:
                    terms = kernel[j::-1] * f[: j + 1]
                    exact = math.fsum(terms)
                    size = math.fsum(np.abs(terms))
                    assert abs(out[j] - exact) <= 1e-12 * size, (mu, kind, j)

    def test_zero_prefix_is_exactly_zero(self, rng):
        n = 3000
        f = rng.uniform(-1.0, 1.0, n)
        f[:700] = 0.0
        out = causal_convolve(sum_kernel(0.5, n), f)
        assert np.all(out[:700] == 0.0)
        assert np.all(out[700:] != 0.0)

    def test_all_zero_input_gives_zeros(self):
        out = causal_convolve(sum_kernel(0.5, 5000), np.zeros(5000))
        assert np.array_equal(out, np.zeros(5000))

    @pytest.mark.parametrize("n", [1500, 3000])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_matches_direct_pattern(self, rng, bad, n):
        kernel = sum_kernel(0.4, n)
        f = rng.uniform(-1.0, 1.0, n)
        at = 3 * n // 5
        f[at] = bad
        out = causal_convolve(kernel, f)
        direct = np.convolve(kernel, f)[:n]
        assert np.array_equal(np.isnan(out), np.isnan(direct))
        assert np.array_equal(np.isinf(out), np.isinf(direct))
        assert np.array_equal(out[:at], direct[:at])

    def test_short_and_empty_inputs_are_the_direct_sum(self, rng):
        f = rng.uniform(-1.0, 1.0, _FFT_MIN - 1)
        kernel = sum_kernel(0.3, len(f))
        direct = np.convolve(kernel, f)[: len(f)]
        assert np.array_equal(causal_convolve(kernel, f), direct)
        assert causal_convolve(kernel, np.empty(0)).shape == (0,)

    def test_long_random_sum_takes_the_transform(self, rng, caplog):
        # a guard that quietly sends everything to the direct sum shows
        # here; at 50000 points the blocks have grown past 1024
        for n in (20000, 50000):
            f = GridFn(Grid(0.0, n), rng.uniform(-1.0, 1.0, n))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
                out = fractional_sum_fn(f, 0.5).values
            records = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
            assert len(records) == 1
            count, block, blocks, direct = records[0].args
            assert count == n and blocks > 1 and (blocks - 1) * block < n <= blocks * block
            assert direct < n / 10 and (block > 1024) == (n > 24 * 1024)
            kernel = sum_kernel(0.5, n)
            for j in rng.integers(0, n, 20):
                terms = kernel[j::-1] * f.values[: j + 1]
                assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    @pytest.mark.parametrize("n", [8000, 20000])
    def test_small_order_keeps_long_grids_on_the_transform(self, rng, caplog, n):
        # one global bound sent every point of these grids to the direct
        # sum; per-block bounds keep all but the few where conv(|k|, |f|)
        # dips, and those are summed directly
        kernel = sum_kernel(0.1, n)
        f = rng.uniform(-1.0, 1.0, n)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[0] == n and record.args[3] < n / 100
        points = np.unique(np.concatenate((np.arange(300), rng.integers(0, n, 40), [n - 1])))
        for j in points:
            terms = kernel[j::-1] * f[: j + 1]
            assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    @pytest.mark.parametrize("n", [_FFT_MIN, 1500, 2048])
    def test_one_block_meets_the_fsum_oracle(self, rng, caplog, n):
        # up to 2048 points the engine is one transform of length >= 2n - 1
        # under the same bound and fallback rule as longer grids
        kernels = [sum_kernel(mu, n) for mu in (0.1, 0.5, 0.9)]
        kernels.append(rng.uniform(-1.0, 1.0, n) * np.exp(-np.arange(n) / 300.0))
        points = np.unique(np.concatenate((np.arange(100), rng.integers(0, n, 30), [n - 1])))
        for kernel in kernels:
            for kind in ("random", "growing", "decaying"):
                f = shaped_input(rng, kind, n)
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
                    out = causal_convolve(kernel, f)
                (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
                assert record.args[:3] == (n, n, 1)
                for j in points:
                    terms = kernel[j::-1] * f[: j + 1]
                    exact = math.fsum(terms)
                    assert abs(out[j] - exact) <= 1e-12 * math.fsum(np.abs(terms)), (kind, j)

    def test_isolated_late_failures_are_summed_one_by_one(self, caplog):
        # with kernel [1, 1, 0, ...] conv(|k|, |f|) is |f_j| + |f_j-1|: 2
        # on unit values, about 1e-13 above the bound of a block, but 1 or
        # less at the three points around a pair of tiny values, which
        # fail it; each is summed directly while the rest stays transformed
        n = 3000
        kernel = np.zeros(n)
        kernel[:2] = 1.0
        f = np.ones(n)
        f[[1500, 1501, 2600, 2601]] = 1e-6
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[2] > 1 and record.args[3] == 6
        direct = np.convolve(kernel, f)[:n]
        late = [1500, 1501, 1502, 2600, 2601, 2602]
        assert np.array_equal(out[late], direct[late])
        assert np.max(np.abs(out - direct) / np.abs(direct)) <= 1e-12

    def test_one_block_sums_isolated_failures_one_by_one(self, caplog):
        # the same dips on one block, whose bound is the scalar
        # eps log2(L) ||k|| ||f||: 1e-13 of 2 passes it and 1 fails, so
        # point 0 (no lag-0 split on one block) is a leading run of one
        n = 2000
        kernel = np.zeros(n)
        kernel[:2] = 1.0
        f = np.ones(n)
        f[[1000, 1001, 1700, 1701]] = 1e-6
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args == (n, n, 1, 7)
        direct = np.convolve(kernel, f)[:n]
        late = [0, 1000, 1001, 1002, 1700, 1701, 1702]
        assert np.array_equal(out[late], direct[late])
        assert np.max(np.abs(out - direct) / np.abs(direct)) <= 1e-12

    def test_many_late_failures_sum_the_whole_grid(self, caplog):
        # with kernel [1, 1, 0, ...] conv(|k|, |f|) is |f_j| + |f_j-1|:
        # away from the spikes every point fails its block's bound, far
        # more than n/4 of them
        n = 3000
        kernel = np.zeros(n)
        kernel[:2] = 1.0
        f = np.full(n, 1e-3)
        f[::100] = 1.0
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[3] == n
        assert np.array_equal(out, np.convolve(kernel, f)[:n])

    def test_logger_is_silent_by_default(self):
        handlers = logging.getLogger("hilfer_dfc").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


class TestSumKernel:
    def test_long_kernel_against_mpmath(self, rng):
        mp = pytest.importorskip("mpmath")
        n = 20000
        lags = np.unique(np.concatenate(([0, 1, 2, n - 1], rng.integers(0, n, 40))))
        with mp.workdps(50):
            for mu in (0.05, 0.5, 0.95, 1.6):
                c = sum_kernel(mu, n)
                for lag in lags:
                    lag = int(lag)
                    exact = mp.rf(mu, lag) / mp.factorial(lag)
                    assert abs(c[lag] - exact) <= 1e-12 * abs(exact), (mu, lag)


class TestRlDifference:
    def test_constant_against_both_oracles(self):
        f = GridFn.constant(Grid(0.0, 30), 1.0)
        got = rl_difference(f, 0.5, 1.5)
        # power-rule closed form: (x-a)^[-mu] / Gamma(1-mu) at x = 1.5
        closed = falling_factorial(1.5, -0.5) / math.gamma(0.5)
        assert closed == pytest.approx(0.375, rel=1e-12)
        assert got == pytest.approx(closed, rel=1e-12)
        assert got == pytest.approx(oracle_rl_single_sum(f, 0.5, 1.5), rel=1e-12)

    def test_whole_grid_against_single_sum_oracle(self, rng):
        f = random_grid_fn(rng, base=0.4, count=18)
        mu = 0.7
        diff = rl_difference_fn(f, mu)
        for j in range(diff.count):
            x = diff.base + j
            assert float(diff.values[j]) == pytest.approx(
                oracle_rl_single_sum(f, mu, x), rel=1e-11, abs=1e-11
            )

    def test_annihilates_its_kernel_monomial(self):
        # the monomial (x - (a+1-mu))^[mu-1], sampled on the operator's own
        # base grid, has identically vanishing order-mu difference: its
        # (1-mu)-sum is the constant Gamma(mu)
        a, mu = 0.0, 0.6
        f = GridFn.from_callable(
            Grid(a, 25),
            lambda x: falling_factorial(x - (a + 1.0 - mu), mu - 1.0),
        )
        summed = fractional_sum_fn(f, 1.0 - mu)
        assert np.max(np.abs(summed.values - math.gamma(mu))) < 1e-11
        diff = rl_difference_fn(f, mu)
        assert np.max(np.abs(diff.values)) < 1e-11

    def test_order_validation(self, rng):
        f = random_grid_fn(rng)
        with pytest.raises(ValueError):
            rl_difference_fn(f, 1.2)


class TestCaputoDifference:
    def test_constant_vanishes(self):
        f = GridFn.constant(Grid(0.0, 15), 4.2)
        diff = caputo_difference_fn(f, 0.5)
        assert np.max(np.abs(diff.values)) == 0.0

    def test_ramp_against_power_rule(self):
        # first difference of x-a is 1; its (1-mu)-sum is the closed monomial
        a, mu = 0.0, 0.5
        f = GridFn.from_callable(Grid(a, 20), lambda x: x - a)
        diff = caputo_difference_fn(f, mu)
        for j in range(diff.count):
            x = diff.base + j
            closed = falling_factorial(x - a, 1.0 - mu) / math.gamma(2.0 - mu)
            assert float(diff.values[j]) == pytest.approx(closed, rel=1e-11)

    def test_zero_function(self):
        f = GridFn.constant(Grid(0.0, 9), 0.0)
        assert np.max(np.abs(caputo_difference_fn(f, 0.3).values)) == 0.0


class TestHilferDifference:
    # count 3000 runs every stage through the transform path
    def test_type_zero_matches_rl_exactly(self, rng):
        for mu, count in itertools.product((0.1, 0.5, 0.9), (31, 3000)):
            f = random_grid_fn(rng, count=count)
            h = hilfer_difference_fn(f, HilferOrder(mu, 0.0))
            r = rl_difference_fn(f, mu)
            assert h.grid == r.grid
            assert np.array_equal(h.values, r.values)

    def test_type_one_matches_caputo_exactly(self, rng):
        for mu, count in itertools.product((0.1, 0.5, 0.9), (31, 3000)):
            f = random_grid_fn(rng, count=count)
            h = hilfer_difference_fn(f, HilferOrder(mu, 1.0))
            c = caputo_difference_fn(f, mu)
            assert h.grid == c.grid
            assert np.array_equal(h.values, c.values)

    def test_constant_with_type_one_vanishes(self):
        f = GridFn.constant(Grid(0.7, 12), 3.3)
        h = hilfer_difference_fn(f, HilferOrder(0.4, 1.0))
        assert np.max(np.abs(h.values)) == 0.0

    def test_interior_type_against_double_sum_oracle(self, rng):
        order = HilferOrder(0.7, 0.5)
        f = random_grid_fn(rng, base=0.3, count=16)
        h = hilfer_difference_fn(f, order)
        for j in range(h.count):
            x = h.base + j
            assert float(h.values[j]) == pytest.approx(
                oracle_hilfer_double_sum(f, order, x), rel=1e-10, abs=1e-11
            )
            assert hilfer_difference(f, order, x) == float(h.values[j])

    def test_linearity(self, rng):
        order = HilferOrder(0.6, 0.3)
        grid = Grid(0.0, 14)
        f = GridFn(grid, rng.uniform(-1, 1, 14))
        g = GridFn(grid, rng.uniform(-1, 1, 14))
        alpha, beta = rng.uniform(-2, 2, 2)
        combo = GridFn(grid, alpha * f.values + beta * g.values)
        lhs = hilfer_difference_fn(combo, order)
        rhs = alpha * hilfer_difference_fn(f, order).values + (
            beta * hilfer_difference_fn(g, order).values
        )
        assert np.max(np.abs(lhs.values - rhs)) < 1e-12


class TestCompositionIdentities:
    def test_sum_of_difference_collapses(self, rng):
        # order-mu sum of the two-parameter difference equals the order-eta
        # sum of the differenced inner stage, on the first 20 points
        for _ in range(6):
            mu = rng.uniform(0.1, 0.9)
            nu = rng.uniform(0.0, 1.0)
            order = HilferOrder(mu, nu)
            f = random_grid_fn(rng, base=0.5, count=22)
            lhs = fractional_sum_fn(hilfer_difference_fn(f, order), mu)
            inner = fractional_sum_fn(f, order.inner_sum_order)
            stepped = GridFn(Grid(inner.base, inner.count - 1), np.diff(inner.values))
            rhs = fractional_sum_fn(stepped, order.eta)
            assert lhs.count == rhs.count
            assert abs(lhs.base - rhs.base) < 1e-12
            assert np.max(np.abs(lhs.values[:20] - rhs.values[:20])) < 1e-9

    def test_sum_of_difference_rl_route(self, rng):
        # the same collapsed value reached through the order-eta difference
        for _ in range(6):
            mu = rng.uniform(0.1, 0.9)
            nu = rng.uniform(0.0, 0.99)
            order = HilferOrder(mu, nu)
            f = random_grid_fn(rng, base=0.5, count=22)
            lhs = fractional_sum_fn(hilfer_difference_fn(f, order), mu)
            rhs = fractional_sum_fn(rl_difference_fn(f, order.eta), order.eta)
            assert lhs.count == rhs.count
            assert abs(lhs.base - rhs.base) < 1e-12
            assert np.max(np.abs(lhs.values[:20] - rhs.values[:20])) < 1e-9

    def test_difference_of_sum_has_monomial_correction(self, rng):
        for _ in range(6):
            mu = rng.uniform(0.1, 0.9)
            nu = rng.uniform(0.0, 1.0)
            order = HilferOrder(mu, nu)
            f = random_grid_fn(rng, base=0.25, count=22)
            lhs = hilfer_difference_fn(fractional_sum_fn(f, mu), order)
            c = order.outer_sum_order
            s = f.base + 1.0 - c
            initial = fractional_sum(f, 1.0 - c, s)
            assert initial == pytest.approx(f(f.base), rel=1e-13)
            for j in range(min(lhs.count, 20)):
                x = lhs.base + j
                rhs = f(x) - initial * taylor_monomial(c - 1.0, x, s)
                assert float(lhs.values[j]) == pytest.approx(
                    rhs, rel=1e-9, abs=1e-9
                )

    def test_left_inverse_when_base_sample_vanishes(self, rng):
        for _ in range(6):
            mu = rng.uniform(0.1, 0.9)
            nu = rng.uniform(0.0, 1.0)
            order = HilferOrder(mu, nu)
            vals = rng.uniform(-1.0, 1.0, 22)
            vals[0] = 0.0
            f = GridFn(Grid(0.25, 22), vals)
            lhs = hilfer_difference_fn(fractional_sum_fn(f, mu), order)
            for j in range(min(lhs.count, 20)):
                x = lhs.base + j
                assert float(lhs.values[j]) == pytest.approx(
                    f(x), rel=1e-9, abs=1e-9
                )
