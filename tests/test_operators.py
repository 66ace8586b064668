"""Fractional sums and differences against brute-force kernel oracles.

Oracles here are written straight from the defining sums with explicit
gamma-function products, independently of the convolution implementation:
the fractional sum as a term-by-term monomial sum, the order-mu
difference additionally via its unified single-sum form with a negative
order kernel, and the two-parameter difference as a fully expanded
double sum and as its composition summed in long double.
"""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from hilfer_dfc import (
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
    OffGridError,
    causal_convolve,
    caputo_difference_fn,
    delta_sum,
    falling_factorial,
    fractional_sum,
    fractional_sum_fn,
    hilfer_difference_fn,
    rl_difference_fn,
    sum_kernel,
    taylor_monomial,
)
from hilfer_dfc.operators import (
    _CELL,
    _FFT_MIN,
    _WORKSPACE_MAX,
    _magnitude_bracket,
    _workspace,
    forward_difference_fn,
)

from conftest import in_fresh_thread, in_threads, random_grid_fn, run_python


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


def longdouble_sum(mu: float, values: np.ndarray) -> np.ndarray:
    """Order-mu fractional sum of values, kernel and convolution in long double."""
    n = len(values)
    lag = np.arange(1, n, dtype=np.longdouble)
    kernel = np.ones(n, dtype=np.longdouble)
    kernel[1:] = np.cumprod((lag - 1 + np.longdouble(mu)) / lag)
    return np.convolve(kernel, values)[:n]


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

    @pytest.mark.parametrize("n", [50, 1500, 3000])
    def test_pointwise_reads_the_whole_grid_sum(self, rng, n):
        # the pointwise form sums the prefix up to x, so it may round apart
        # from the whole grid's sum in the last bits, never by more
        f = random_grid_fn(rng, base=0.2, count=n)
        mu = 0.37
        kernel = sum_kernel(mu, n)
        whole = fractional_sum_fn(f, mu).values
        for j in np.unique(np.concatenate(([0, 1, n - 1], rng.integers(0, n, 12)))):
            size = math.fsum(kernel[j::-1] * np.abs(f.values[: j + 1]))
            got = fractional_sum(f, mu, 0.2 + mu + j)
            assert abs(got - whole[j]) <= 1e-13 * size, j

    def test_pointwise_is_the_prefix_sum_bits_below_the_transform(self, rng):
        # one dot product gives the bits of the whole-grid sum of the
        # samples up to x, read at x, wherever that sum is direct
        for _ in range(40):
            n = int(rng.integers(1, _FFT_MIN))
            mu = float(rng.uniform(0.05, 2.5))
            f = random_grid_fn(rng, base=float(rng.choice([0.0, 0.5, -3.25])), count=n)
            for j in np.unique(np.concatenate(([0, n - 1], rng.integers(0, n, 8), rng.integers(0, 12, 2)))):
                prefix = GridFn(Grid(f.base, j + 1), f.values[: j + 1])
                expect = fractional_sum_fn(prefix, mu).values[j]
                assert fractional_sum(f, mu, f.base + mu + j) == expect, (n, mu, j)

    def test_off_grid_point_raises(self, rng):
        f = random_grid_fn(rng)
        with pytest.raises(OffGridError):
            fractional_sum(f, 0.5, 1.0)  # not on base+0.5 lattice

    @pytest.mark.parametrize("n", [3, 2000])
    def test_sum_past_the_float_range_raises(self, n):
        # both forms, on the direct path and on the transform
        f = GridFn(Grid(0.0, n), [1e308] * n)
        with pytest.raises(OverflowError):
            fractional_sum_fn(f, 0.5)
        with pytest.raises(OverflowError):
            fractional_sum(f, 0.5, n - 0.5)
        assert fractional_sum(f, 0.5, 0.5) == 1e308

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_propagate(self, bad):
        f = GridFn(Grid(0.0, 3), [1.0, bad, 1.0])
        summed = fractional_sum_fn(f, 0.5).values
        assert summed[0] == 1.0 and not np.isfinite(summed[1:]).any()
        assert not math.isfinite(fractional_sum(f, 0.5, 2.5))

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_is_named(self, mu):
        # not reported as overflow, nor as a failed integer conversion
        f = GridFn.constant(Grid(0.0, 10), 1.0)
        message = f"mu must be finite: got {mu!r}"
        with pytest.raises(ValueError, match=message):
            fractional_sum_fn(f, mu)
        with pytest.raises(ValueError, match=message):
            fractional_sum(f, mu, 0.5)

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
        # here; at 50000 points the blocks are still at most 1024 points
        for n in (20000, 50000):
            f = GridFn(Grid(0.0, n), rng.uniform(-1.0, 1.0, n))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
                out = fractional_sum_fn(f, 0.5).values
            records = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
            assert len(records) == 1
            count, block, blocks, direct = records[0].args
            assert count == n and blocks > 1 and (blocks - 1) * block < n <= blocks * block
            assert direct < n / 10 and block <= 1024
            kernel = sum_kernel(0.5, n)
            for j in rng.integers(0, n, 20):
                terms = kernel[j::-1] * f.values[: j + 1]
                assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    @pytest.mark.parametrize("n, blocks, block", [(24576, 24, 1024), (24577, 25, 1000)])
    def test_blocks_do_not_grow_with_the_grid(self, rng, caplog, n, blocks, block):
        # ceil(n / 1024) blocks, each the 5-smooth length that covers n in
        # that many: one more point past 24 full blocks makes 25 shorter ones
        kernel = sum_kernel(0.5, n)
        f = rng.uniform(-1.0, 1.0, n)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[:3] == (n, block, blocks) and record.args[3] < n / 10
        for j in rng.integers(0, n, 20):
            terms = kernel[j::-1] * f[: j + 1]
            assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    @pytest.mark.parametrize("n", [_FFT_MIN, 1700, 2048, 8000, 20000])
    def test_small_order_keeps_long_grids_on_the_transform(self, rng, caplog, n):
        # the norm of a small-order sum kernel sits at lag 0: a bound that
        # includes it fails many points, on long grids all of them; with
        # it added apart, per-block bounds keep all but the few where
        # conv(|k|, |f|) dips, and those are summed directly
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
    def test_shortest_transformed_grids_meet_the_fsum_oracle(self, rng, caplog, n):
        # the shortest transformed grids are two blocks of B >= n/2
        # points, under the same bound and fallback rule as longer grids
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
                count, block, blocks, _ = record.args
                assert count == n and blocks == 2 and block < n <= 2 * block
                for j in points:
                    terms = kernel[j::-1] * f[: j + 1]
                    exact = math.fsum(terms)
                    assert abs(out[j] - exact) <= 1e-12 * math.fsum(np.abs(terms)), (kind, j)

    @pytest.mark.parametrize("n, dips", [(2000, [1000, 1700]), (3000, [1500, 2600])])
    def test_isolated_late_failures_are_summed_one_by_one(self, caplog, n, dips):
        # with kernel [1, 1, 0, ...] conv(|k|, |f|) is |f_j| + |f_j-1|: 2
        # on unit values, about 1e-13 above the bound of a block, but 1 or
        # less at the three points around a pair of tiny values, which
        # fail it; each is summed directly while the rest stays transformed
        kernel = np.zeros(n)
        kernel[:2] = 1.0
        f = np.ones(n)
        f[[dip + i for dip in dips for i in (0, 1)]] = 1e-6
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[2] > 1 and record.args[3] == 6
        direct = np.convolve(kernel, f)[:n]
        late = [dip + i for dip in dips for i in (0, 1, 2)]
        assert np.array_equal(out[late], direct[late])
        assert np.max(np.abs(out - direct) / np.abs(direct)) <= 1e-12

    def test_many_late_failures_sum_the_whole_grid(self, caplog, fft_calls):
        # with kernel [1, 1, 0, ...] conv(|k|, |f|) is |f_j| + |f_j-1|:
        # away from the spikes every point fails its block's bound, far
        # more than n/4 of them; the bracket's ceiling is exact for such
        # a kernel, so that is known before any transform runs
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
        assert fft_calls == []

    @pytest.mark.parametrize("n", [_FFT_MIN, 3000, 20000])
    def test_flat_input_takes_one_value_transform(self, rng, fft_calls, n):
        # kernel rows, value rows and one batched inverse: the bracket
        # decides every point without a transform of |k| against |f|
        for mu in (0.1, 0.5, 0.9):
            fft_calls.clear()
            causal_convolve(sum_kernel(mu, n), rng.uniform(-1.0, 1.0, n))
            assert fft_calls == ["rfft", "rfft", "irfft"], mu

    def test_many_undecided_points_take_the_magnitude_transform(self, rng, caplog, fft_calls):
        # a kernel that changes sign inside a band gets floor weight 0
        # there, so hundreds of points fall between the floor and the
        # ceiling of flat input, which has no rise or head to remove: the
        # transform of |k| against |f| decides them (|k| and |f| first,
        # then k and f), and the result meets the oracle wherever it is read
        n = 20000
        kernel = rng.uniform(-1.0, 1.0, n) * np.exp(-np.arange(n) / 300.0)
        f = shaped_input(rng, "random", n)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        assert fft_calls == ["rfft", "rfft", "irfft", "rfft", "rfft", "irfft"]
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[3] < n / 4
        for j in np.unique(np.concatenate((rng.integers(0, n, 30), [n - 1]))):
            terms = kernel[j::-1] * f[: j + 1]
            assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    def test_steady_rise_is_rescaled_onto_one_value_transform(self, rng, caplog, fft_calls):
        # on a steady e^60 rise the early points of every block fail its
        # bound; k rho^-l against f rho^-j has no rise, and the bracket
        # times the same weights keeps every point of it
        n = 20000
        kernel = sum_kernel(0.1, n)
        f = shaped_input(rng, "growing", n)
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        assert fft_calls == ["rfft", "rfft", "irfft"]
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[3] == 0
        for j in np.unique(np.concatenate((rng.integers(0, n, 30), [0, n - 1]))):
            terms = kernel[j::-1] * f[: j + 1]
            assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    @pytest.mark.parametrize("signs", ["positive", "random"])
    def test_rise_past_the_exponent_cap_keeps_the_whole_direct_sum(self, rng, caplog, fft_calls, signs):
        # a rise of 2^950 over the grid is rescaled; one of 2^1000 would
        # take weights and kernel lags out of the normal range, so it
        # keeps the direct sum every point fails into
        n = 3000
        kernel = sum_kernel(0.5, n)
        sign = np.ones(n) if signs == "positive" else rng.choice([-1.0, 1.0], n)
        for rise, transformed in ((950.0, True), (1000.0, False)):
            f = sign * np.exp2(np.linspace(0.0, rise, n))
            fft_calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
                out = causal_convolve(kernel, f)
            (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
            if transformed:
                assert record.args[3] < n / 4 and fft_calls[:3] == ["rfft", "rfft", "irfft"]
            else:
                assert fft_calls == [] and record.args[3] == n
                assert np.array_equal(out, np.convolve(kernel, f)[:n])
            for j in np.unique(np.concatenate((rng.integers(0, n, 30), [0, n - 1]))):
                terms = kernel[j::-1] * f[: j + 1]
                assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), (rise, j)

    @pytest.mark.parametrize("lags", [3000, 500])
    def test_dominant_first_cell_is_summed_apart(self, rng, caplog, fft_calls, lags):
        # the first 16 samples stand 2^10 above the rest: the bound of
        # block 0 fails its later points.  The cell is summed against
        # every output directly and the rest, judged against the bracket
        # of the whole input, takes one value transform
        n = 3000
        kernel = sum_kernel(0.5, lags)
        f = rng.uniform(-1.0, 1.0, n) * np.exp(-np.linspace(0.0, 3.0, n))
        f[:_CELL] *= 2.0**10
        with caplog.at_level(logging.DEBUG, logger="hilfer_dfc"):
            out = causal_convolve(kernel, f)
        assert fft_calls == ["rfft", "rfft", "irfft"]
        (record,) = [r for r in caplog.records if r.name == "hilfer_dfc.operators"]
        assert record.args[3] < n / 100
        padded = np.zeros(n)
        padded[:lags] = kernel
        for j in np.unique(np.concatenate((np.arange(40), rng.integers(0, n, 30), [n - 1]))):
            terms = padded[j::-1] * f[: j + 1]
            assert abs(out[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), j

    @pytest.mark.parametrize("n", [_FFT_MIN, 3000, 20000])
    def test_decaying_input_takes_one_value_transform(self, rng, fft_calls, n):
        # the bracket keeps an e^-30 decay on its own, so neither
        # remedy runs and no transform is added
        for mu in (0.3, 0.5, 0.9):
            fft_calls.clear()
            causal_convolve(sum_kernel(mu, n), shaped_input(rng, "decaying", n))
            assert fft_calls == ["rfft", "rfft", "irfft"], mu

    def test_logger_is_silent_by_default(self):
        # a long convolution reaches the DEBUG record; in a fresh
        # interpreter that configures no logging it writes nothing, with
        # logging not imported and with logging imported
        code = (
            "import numpy as np\n"
            "from hilfer_dfc import causal_convolve, sum_kernel\n"
            "causal_convolve(sum_kernel(0.5, 20000), np.cos(np.arange(20000.0)))\n"
        )
        for preamble in ("", "import logging\n"):
            proc = run_python(preamble + code)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), preamble


class TestMagnitudeBracket:
    @staticmethod
    def bracket(kernel, f):
        """The bracket of conv(|kernel|, |f|) and that sum in long double."""
        n = len(f)
        out = _magnitude_bracket(kernel, kernel[0], f, -(-n // _CELL) * _CELL)
        exact = np.convolve(np.abs(kernel).astype(np.longdouble), np.abs(f).astype(np.longdouble))[:n]
        return out[0, :n], out[1, :n], exact

    @pytest.mark.parametrize("n", [_FFT_MIN, 3000])
    def test_floor_and_ceiling_hold_the_exact_magnitude(self, rng, n):
        kernels = [sum_kernel(mu, n) for mu in (0.02, 0.1, 0.3, 0.5, 0.9, 1.0, 1.3, 1.8)]
        pair = np.zeros(n)
        pair[:2] = 1.0
        short = np.zeros(n)
        short[: n // 3] = sum_kernel(0.7, n // 3)
        kernels += [pair, short, rng.uniform(-1.0, 1.0, n) * np.exp(-np.arange(n) / 300.0)]
        inputs = [rng.uniform(-1.0, 1.0, n) * np.exp(np.linspace(0.0, rise, n)) for rise in (0.0, 60.0, -30.0, -300.0)]
        zero_prefix = rng.uniform(-1.0, 1.0, n)
        zero_prefix[: n // 4] = 0.0
        dips = np.ones(n)
        dips[[n // 3, n // 3 + 1, 2 * n // 3]] = 1e-6
        for kernel, f in itertools.product(kernels, inputs + [zero_prefix, dips]):
            floor, ceiling, exact = self.bracket(kernel, f)
            assert np.all(0.0 <= floor) and np.all(floor <= exact) and np.all(exact <= ceiling)

    def test_floor_is_at_least_half_the_magnitude_on_flat_input(self, rng):
        n = 3000
        f = rng.uniform(-1.0, 1.0, n)
        for mu in (0.02, 0.1, 0.3, 0.5, 0.9, 1.0):
            floor, _, exact = self.bracket(sum_kernel(mu, n), f)
            assert np.min(floor / exact) >= 0.5, mu


def workspace_cases(rng):
    """(kernel, values) at 20000, 3000, 50000 and again 20000 points: a sum
    kernel, a signed one and one of n/3 lags, each with random, all-zero
    and zero-prefix values, and below 50000 points with a NaN sample."""
    cases = []
    for n in (20000, 3000, 50000, 20000):
        signed = rng.uniform(-1.0, 1.0, n) * np.exp(-np.arange(n) / 300.0)
        for kernel in (sum_kernel(0.3, n), signed, sum_kernel(0.7, n // 3)):
            f = rng.uniform(-1.0, 1.0, n)
            zero_prefix = f.copy()
            zero_prefix[: n // 4] = 0.0
            cases += [(kernel, f), (kernel, np.zeros(n)), (kernel, zero_prefix)]
            if n < 50000:
                bad = f.copy()
                bad[n // 2] = math.nan
                cases.append((kernel, bad))
    return cases


class TestConvolveWorkspace:
    def test_interleaved_sizes_repeat_the_first_results(self, rng):
        # the workspace grows to 50000 points and serves the later
        # 20000-point calls from the front of larger arrays
        cases = workspace_cases(rng)
        first = in_fresh_thread(lambda: [causal_convolve(k, f) for k, f in cases])
        for _ in range(2):
            for (kernel, f), expect in zip(cases, first):
                assert np.array_equal(causal_convolve(kernel, f), expect, equal_nan=True)

    @pytest.mark.parametrize("n", [2001, 20000])
    def test_results_do_not_alias_the_workspace(self, rng, n):
        # two blocks of B = 1024 > n/2, and twenty of B = 1000 < n/20
        kernel = sum_kernel(0.5, n)
        out = causal_convolve(kernel, rng.uniform(-1.0, 1.0, n))
        kept = out.copy()
        causal_convolve(kernel, rng.uniform(-1.0, 1.0, n))
        assert np.array_equal(out, kept)
        assert not any(np.shares_memory(out, array) for array in _workspace.kept.values())

    def test_threads_get_the_serial_results(self, rng):
        # more threads than cores, each looping over the sizes in its own
        # order, switching often: a shared buffer would mix their sums
        cases = workspace_cases(rng)[::2]
        serial = [causal_convolve(k, f) for k, f in cases]
        orders = [np.roll(np.arange(len(cases)), shift) for shift in range(0, len(cases), 6)]
        results = in_threads(causal_convolve, cases, orders)
        assert len(results) == len(orders) * len(cases)
        for i, out in results:
            assert np.array_equal(out, serial[i], equal_nan=True), i

    def test_a_long_call_keeps_the_workspace_within_its_cap(self, rng):
        n = 200000
        kernel, f = sum_kernel(0.5, n), rng.uniform(-1.0, 1.0, n)

        def call():
            out = causal_convolve(kernel, f)
            return out, _workspace.nbytes()

        out, kept = in_fresh_thread(call)
        assert 0 < kept <= _WORKSPACE_MAX
        assert np.array_equal(causal_convolve(kernel, f), out)
        assert _workspace.nbytes() <= _WORKSPACE_MAX

    @pytest.mark.parametrize("signed", [False, True])
    def test_a_repeated_call_allocates_little_beyond_its_result(self, rng, signed):
        # the transform allocated about 11.7 n doubles per call before it
        # reused its buffers
        n = 20000
        kernel = rng.uniform(-1.0, 1.0, n) * np.exp(-np.arange(n) / 300.0) if signed else sum_kernel(0.5, n)
        f = rng.uniform(-1.0, 1.0, n)
        causal_convolve(kernel, f)
        tracemalloc.start()
        try:
            causal_convolve(kernel, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n

    def test_a_handler_that_convolves_leaves_the_result_alone(self, rng):
        # the DEBUG record goes out after the last workspace read
        n = 20000
        kernel, f = sum_kernel(0.5, n), rng.uniform(-1.0, 1.0, n)
        expect = causal_convolve(kernel, f)
        other = rng.uniform(-1.0, 1.0, n)

        class Convolving(logging.Handler):
            busy = False

            def emit(self, record):
                if not self.busy:
                    self.busy = True
                    causal_convolve(kernel, other)
                    self.busy = False

        logger = logging.getLogger("hilfer_dfc.operators")
        handler, level = Convolving(), logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            out = causal_convolve(kernel, f)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert np.array_equal(out, expect)


class TestDifferencesNameTheirOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [4, 40, 3000])
    def test_alternating_extremes_raise_or_stay_finite(self, n):
        # np.diff of samples alternating +-1e308 returned [-inf, nan, nan]
        # with only a numpy RuntimeWarning; the differences that take it
        # name the overflow as the sums do, and the others stay finite
        f = GridFn(Grid(0.0, n), np.tile([1e308, -1e308], n // 2))
        differencing_first = (
            forward_difference_fn,
            lambda g: caputo_difference_fn(g, 0.5),
            lambda g: hilfer_difference_fn(g, HilferOrder(0.5, 1.0)),
        )
        for difference in differencing_first:
            with pytest.raises(OverflowError, match="^forward difference exceeds the float range$"):
                difference(f)
        summing_first = [lambda g: rl_difference_fn(g, 0.5)]
        summing_first += [lambda g, nu=nu: hilfer_difference_fn(g, HilferOrder(0.5, nu)) for nu in (0.0, 0.5)]
        for difference in summing_first:
            try:
                out = difference(f)
            except OverflowError:
                continue
            assert np.isfinite(out.values).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [4, 40])
    def test_direct_sums_overflowing_while_accumulating_are_finite(self, n):
        # below the transform's crossover np.convolve's running sums of
        # +-1e308 passed the float range, and the sums raised, while every
        # true sum is finite (1e308, -5e307, 8.75e307, ...)
        values = np.tile([1e308, -1e308], n // 2)
        f = GridFn(Grid(0.0, n), values)
        exact = longdouble_sum(0.5, values.astype(np.longdouble))
        sums = fractional_sum_fn(f, 0.5).values
        assert np.all(np.abs(sums - exact) <= 1e-15 * np.abs(exact))
        pointwise = np.array([fractional_sum(f, 0.5, 0.5 + j) for j in range(n)])
        assert np.all(np.abs(pointwise - exact) <= 1e-15 * np.abs(exact))
        assert np.isfinite(rl_difference_fn(f, 0.5).values).all()
        # samples whose true sums pass the range still raise
        with pytest.raises(OverflowError, match="^fractional sum exceeds the float range$"):
            fractional_sum_fn(GridFn(Grid(0.0, n), np.full(n, 1e308)), 0.5)
        with pytest.raises(OverflowError, match="^fractional sum exceeds the float range$"):
            fractional_sum(GridFn(Grid(0.0, n), np.full(n, 1e308)), 0.5, 0.5 + n - 1)

    def test_finite_direct_sums_keep_their_bits(self, rng):
        values = rng.standard_normal(40) * 1e300
        f = GridFn(Grid(0.0, 40), values)
        direct = np.convolve(sum_kernel(0.3, 40), values)[:40]
        assert fractional_sum_fn(f, 0.3).values.tobytes() == direct.tobytes()
        assert fractional_sum(f, 0.3, 39.3) == direct[-1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [4, 40, 3000])
    def test_initial_term_past_the_range_is_named(self, n):
        # the Riemann-Liouville difference at point 0 is f(1) + mu |f(a)|
        # = 1.7e308; less beta f(a) it is past the float range
        values = np.zeros(n)
        values[:2] = [-1e308, 1.2e308]
        f = GridFn(Grid(0.0, n), values)
        assert np.isfinite(rl_difference_fn(f, 0.5).values).all()
        with pytest.raises(OverflowError, match="^two-parameter difference exceeds the float range$"):
            hilfer_difference_fn(f, HilferOrder(0.5, 0.5))


class TestSumKernel:
    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.6])
    def test_in_place_weights_match_the_quotient_form(self, mu):
        n = 20000
        lag = np.arange(1, n)
        expect = np.empty(n)
        expect[0] = 1.0
        np.cumprod((lag - 1 + mu) / lag, out=expect[1:])
        assert np.array_equal(sum_kernel(mu, n), expect)

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
        got = rl_difference_fn(f, 0.5)(1.5)
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

    @pytest.mark.parametrize("kind", ["rough", "growing", "decaying"])
    def test_interior_types_against_the_extended_precision_composition(self, rng, kind):
        # the one-sum form against the composition summed in long double,
        # relative to the size S^beta(spread(S^alpha |f|)) of its terms
        for _ in range(8):
            n = int(rng.integers(40, 1501))
            j = np.arange(n)
            if kind == "rough":
                v = rng.uniform(-1, 1, n)
            elif kind == "growing":
                v = (1 + j / n) ** rng.uniform(1, 4) * np.exp(rng.uniform(0, 3) * j / n)
            else:
                v = np.exp(-rng.uniform(1, 20) * j / n) * (1 + j) ** -rng.uniform(0, 1)
            order = HilferOrder(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
            inner, outer = order.inner_sum_order, order.outer_sum_order
            got = hilfer_difference_fn(GridFn(Grid(0.5, n), v), order)
            assert got.grid == Grid(0.5 + (1.0 - order.mu), n - 1)
            exact = longdouble_sum(outer, np.diff(longdouble_sum(inner, v.astype(np.longdouble))))
            spread = causal_convolve(sum_kernel(inner, n), np.abs(v))
            size = causal_convolve(sum_kernel(outer, n - 1), spread[1:] + spread[:-1])
            assert np.max(np.abs(got.values - exact) / size) <= 1e-14, (n, order)

    @pytest.mark.parametrize("nu", [0.0, 1e-12, 1.0 - 1e-12, 1.0])
    def test_edge_types_are_the_composition_bits(self, rng, nu):
        for mu, count in itertools.product((0.1, 0.5, 0.9), (31, 3000)):
            f = random_grid_fn(rng, count=count)
            f = GridFn(f.grid, f.values + 1.0)  # f(a) != 0
            order = HilferOrder(mu, nu)
            inner = fractional_sum_fn(f, order.inner_sum_order)
            composed = fractional_sum_fn(forward_difference_fn(inner), order.outer_sum_order)
            h = hilfer_difference_fn(f, order)
            assert h.grid == composed.grid
            assert np.array_equal(h.values, composed.values)

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


_RAMP = GridFn(Grid(0.0, 6), np.arange(6.0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fractional_sum_fn(_RAMP, -0.5), ValueError, "sum order must be nonnegative"),
        (lambda: fractional_sum(_RAMP, -0.5, 2.5), ValueError, "sum order must be nonnegative"),
        (lambda: forward_difference_fn(GridFn(Grid(0.0, 1), [1.0])), CoverageError, "at least two samples"),
        (lambda: caputo_difference_fn(_RAMP, 0.0), ValueError, r"must lie in \(0, 1\]"),
        (lambda: caputo_difference_fn(_RAMP, 1.5), ValueError, r"must lie in \(0, 1\]"),
    ],
    ids=["negative-sum-order", "negative-point-sum-order", "one-sample-difference",
         "caputo-order-zero", "caputo-order-past-one"],
)
def test_documented_errors(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
