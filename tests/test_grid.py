"""Grid substrate: falling factorials, monomials, sums, jump operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilfer_dfc import (
    Grid,
    GridFn,
    HilferOrder,
    OffGridError,
    SingularGammaError,
    delta_sum,
    existence_bound,
    falling_factorial,
    falling_factorial_sign_logmag,
    jump_backward,
    jump_forward,
    taylor_monomial,
)
from hilfer_dfc.grid import INTEGER_SNAP, _sign_lgamma


class TestFallingFactorial:
    def test_integer_case(self):
        # Gamma(6)/Gamma(4) = 120/6
        assert falling_factorial(5.0, 2.0) == pytest.approx(20.0, rel=1e-14)

    def test_order_zero_is_one(self):
        for t in (-3.7, 0.0, 2.5, 11.0):
            assert falling_factorial(t, 0.0) == 1.0

    def test_half_order_against_product_form_oracle(self):
        # Gamma(4.5) = 3.5 * 2.5 * 1.5 * 0.5 * sqrt(pi), Gamma(4) = 6
        oracle = (3.5 * 2.5 * 1.5 * 0.5 * math.sqrt(math.pi)) / 6.0
        assert oracle == pytest.approx(1.938621399427908, rel=1e-12)
        assert falling_factorial(3.5, 0.5) == pytest.approx(oracle, rel=1e-12)

    def test_denominator_pole_gives_zero(self):
        # Gamma(-2) pole below, Gamma(3) on top
        assert falling_factorial(2.0, 5.0) == 0.0
        assert falling_factorial(1.5, 3.5) == 0.0  # t-r+1 = -1

    def test_numerator_pole_is_singular(self):
        with pytest.raises(SingularGammaError):
            falling_factorial(-2.0, 0.5)
        with pytest.raises(SingularGammaError):
            falling_factorial(-1.0, -1.0)  # 1/(t+1) at t = -1

    def test_negative_integer_order_reciprocal(self):
        assert falling_factorial(2.0, -2.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_pole_over_pole_matches_polynomial_continuation(self):
        # integer order at negative integer argument: t(t-1)...(t-r+1)
        assert falling_factorial(-1.0, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert falling_factorial(-2.0, 2.0) == pytest.approx(6.0, rel=1e-14)
        # sign/log variant agrees
        sign, logmag = falling_factorial_sign_logmag(-2.0, 2.0)
        assert sign * math.exp(logmag) == pytest.approx(6.0, rel=1e-13)

    def test_integer_order_past_the_float_range_raises(self):
        # 500!/200! is about 10^759; the non-integer order beside it raised
        # already, the integer one returned inf
        with pytest.raises(OverflowError, match=r"falling_factorial\(500\.0, 300\.0\)"):
            falling_factorial(500.0, 300.0)
        with pytest.raises(OverflowError):
            falling_factorial(500.5, 300.0)
        with pytest.raises(OverflowError):
            falling_factorial(-500.0, 300.0)
        assert falling_factorial(170.0, 170.0) == pytest.approx(math.factorial(170), rel=1e-13)

    def test_zero_factor_after_an_overflowed_product_is_zero(self):
        # 200 * 199 * ... overflows before the factor 0 at i = 200
        assert falling_factorial(200.0, 300.0) == 0.0

    def test_sign_logmag_encodes_zero(self):
        sign, logmag = falling_factorial_sign_logmag(2.0, 5.0)
        assert sign == 0.0 and logmag == -math.inf

    @given(
        t=st.floats(0.5, 20.0),
        r1=st.floats(0.0, 3.0),
        r2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_addition_law(self, t, r1, r2):
        # t^[r1+r2] = (t-r2)^[r1] * t^[r2] wherever no gamma argument sits
        # near a nonpositive integer and no order sits on the integer-snap
        # boundary (orders within the snap distance take exact integer
        # semantics by design)
        for order in (r1, r2, r1 + r2):
            if abs(order - round(order)) < 1e-6:
                return
        for arg in (t - r2 + 1.0, t - r1 - r2 + 1.0):
            near = round(arg)
            if near <= 0 and abs(arg - near) < 1e-3:
                return
        lhs = falling_factorial(t, r1 + r2)
        rhs = falling_factorial(t - r2, r1) * falling_factorial(t, r2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestTaylorMonomial:
    def test_order_one_is_difference(self):
        for t, s in ((4.7, 1.2), (0.0, -3.0)):
            assert taylor_monomial(1.0, t, s) == pytest.approx(t - s, rel=1e-14)

    def test_order_zero_is_one(self):
        assert taylor_monomial(0.0, 9.4, 1.1) == 1.0

    def test_half_order_oracle(self):
        # (2.5)^[0.5] / Gamma(1.5) = (15/8) sqrt(pi) / ((1/2) sqrt(pi) * 2) = 15/8
        got = taylor_monomial(0.5, 2.5, 0.0)
        assert got == pytest.approx(1.875, rel=1e-12)

    def test_negative_integer_order_vanishes(self):
        # 1/Gamma(0) = 0 against a finite falling factorial
        assert taylor_monomial(-1.0, 5.0, 2.0) == 0.0
        assert taylor_monomial(-1.0, 2.0, 2.0) == 0.0

    @given(
        r=st.floats(0.1, 2.5),
        t=st.floats(3.0, 15.0),
        shift=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, r, t, shift):
        s = 0.7
        a = taylor_monomial(r, t, s)
        b = taylor_monomial(r, t + shift, s + shift)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def _via_logmag(t, r):
    sign, logmag = falling_factorial_sign_logmag(t, r)
    return sign * math.exp(logmag)


def _monomial(t, r):
    return taylor_monomial(r, t, 0.0)


class TestGammaOracle:
    """The stdlib gamma layer against 50-digit mpmath."""

    @staticmethod
    def _mp():
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        return mp

    def test_sign_and_log_gamma(self):
        mp = self._mp()
        rng = np.random.default_rng(11)
        offsets = rng.choice([-1.0, 1.0], 400) * 10 ** rng.uniform(-13, -8, 400)
        near = -rng.integers(1, 30, 400) + offsets
        for x in map(float, np.concatenate([rng.uniform(-30.0, 170.0, 1500), near])):
            gamma = mp.gamma(mp.mpf(x))
            sign, log_abs = _sign_lgamma(x)
            assert sign == (1.0 if gamma > 0 else -1.0), x
            expect = float(mp.log(abs(gamma)))
            # 2e-14 is about 90 eps of the log's size (measured worst 7e-15)
            assert abs(log_abs - expect) <= 2e-14 * max(1.0, abs(expect)), x

    def test_falling_factorial_and_monomial(self):
        mp = self._mp()
        rng = np.random.default_rng(12)
        offsets = rng.choice([-1.0, 1.0], 200) * 10 ** rng.uniform(-8, -1, 200)
        t_values = np.concatenate([rng.uniform(-30.0, 170.0, 600), -rng.integers(1, 30, 200) + offsets])
        r_values = rng.uniform(-3.0, 6.0, t_values.size)
        checked = 0
        for t, r in zip(map(float, t_values), map(float, r_values)):
            try:
                ff = falling_factorial(t, r)
                mono = _monomial(t, r)
            except SingularGammaError:
                continue
            # the gamma arguments as the library forms them in float64: next
            # to a pole the ratio amplifies the rounding of t - r + 1, which
            # is conditioning of the inputs, not error of the gamma layer
            num, den = mp.mpf(t + 1.0), mp.mpf(t - r + 1.0)
            if den <= 0 and den == mp.floor(den):
                expect = mp.mpf(0)
            else:
                expect = mp.gamma(num) / mp.gamma(den)
            for got, ref in ((ff, expect), (mono, expect / mp.gamma(mp.mpf(r + 1.0)))):
                assert abs(mp.mpf(got) - ref) <= 1e-12 * abs(ref), (t, r)
            checked += 1
        assert checked > 700

    def test_large_arguments(self):
        # lgamma(t+1) - lgamma(t-r+1) loses eps |lgamma(t)|, all of the
        # value from t ~ 1e17 on; Stirling's form keeps 1e-13 up to 1e300
        mp = self._mp()

        def log_ratio(t, r):  # loggamma(t) has log10(t) digits before the point
            with mp.workdps(int(math.log10(t)) + 40):
                return mp.loggamma(mp.mpf(t) + 1) - mp.loggamma(mp.mpf(t) - r + 1)

        rng = np.random.default_rng(13)
        for t, r in zip(10 ** rng.uniform(0.0, 300.0, 400), rng.uniform(-1.0, 1.0, 400)):
            t, r = float(t), float(r)
            log_expect = log_ratio(t, r)
            expect = mp.exp(log_expect)
            assert abs(falling_factorial(t, r) - expect) <= 1e-13 * expect, (t, r)
            sign, logmag = falling_factorial_sign_logmag(t, r)
            assert sign == 1.0, (t, r)
            assert abs(logmag - log_expect) <= 1e-14 * max(1.0, abs(logmag)), (t, r)
            T, mu = float(round(t) + 1), abs(r)
            bound = mp.gamma(mu + 1) / mp.exp(log_ratio(T - 1.0 + mu, mu))
            assert abs(existence_bound(0.0, T, mu) - bound) <= 1e-13 * bound, (T, mu)

    def test_taylor_monomial_at_large_arguments(self):
        # exp of the log form lost eps |r log t| (1.1e-13 at t ~ 1e300);
        # the halved pow keeps a few ulps.  At 40 digits t - r + 1 would
        # drop r at t = 1e300, so the reference carries 330.  Below
        # Stirling's range the value still comes from three lgamma calls,
        # each up to 1e-15 off near the zeros of lgamma at 1 and 2.
        mp = self._mp()
        rng = np.random.default_rng(29)
        for t, r in zip(10 ** rng.uniform(0.0, 300.0, 600), rng.uniform(-1.0, 1.0, 600)):
            t, r = float(t), float(r)
            with mp.workdps(330):
                log_ratio = mp.loggamma(mp.mpf(t) + 1) - mp.loggamma(mp.mpf(t) - mp.mpf(r) + 1)
                expect = mp.exp(log_ratio) / mp.gamma(mp.mpf(r) + 1)
                error = abs(taylor_monomial(r, t, 0.0) - expect) / expect
            assert error <= (1e-15 if t - r + 1.0 >= 16.0 else 4e-15), (t, r)
        # Gamma(r+1) under- or overflows for |r| >= 170, and a half power
        # can overflow where the value does not: the value stays finite, to
        # a few eps of the size of its logarithm
        for r, t in [(-180.5, 20.0), (-171.5, 30.0), (-169.5, 20.0), (-300.5, 500.0),
                     (300.0, 500.0), (160.5, 300.0), (-160.5, 300.0)]:
            with mp.workdps(330):
                log_ratio = mp.loggamma(mp.mpf(t) + 1) - mp.loggamma(mp.mpf(t) - mp.mpf(r) + 1)
                expect = mp.exp(log_ratio) / mp.gamma(mp.mpf(r) + 1)
                error = abs(taylor_monomial(r, t, 0.0) - expect) / abs(expect)
            log_size = abs(r) * math.log(t + 1.0) + abs(math.lgamma(r + 1.0))
            assert error <= 8 * np.finfo(float).eps * log_size, (t, r)

    @pytest.mark.parametrize("base", [-4.0, -3.0, -5.0])
    def test_integer_snap_boundary(self, base):
        # math.lgamma raises at an exact pole where scipy returned inf, and a
        # non-integer r lets both gamma arguments sit within INTEGER_SNAP of
        # poles: t and r on each side of the snap distance, stepped at their
        # own float resolution, and in a band around it, must give a finite
        # value or SingularGammaError
        def edge(x):
            near = [x]
            for _ in range(4):
                near = [np.nextafter(near[0], -math.inf), *near, np.nextafter(near[-1], math.inf)]
            return [float(v) for v in near]

        band = np.linspace(0.99, 1.01, 11) * INTEGER_SNAP
        ts = [base, *edge(base - INTEGER_SNAP), *edge(base + INTEGER_SNAP)]
        ts += [base + float(d) for d in np.linspace(-2.2, 2.2, 11) * INTEGER_SNAP]
        outcomes = {"finite": 0, "singular": 0}
        for m in range(-3, 6):
            rs = [*edge(m - INTEGER_SNAP), *edge(m + INTEGER_SNAP)]
            rs += [m + sgn * float(d) for d in band for sgn in (-1.0, 1.0)]
            for r in rs:
                for t in ts:
                    for call in (falling_factorial, _via_logmag, _monomial):
                        try:
                            value = call(t, r)
                        except SingularGammaError:
                            outcomes["singular"] += 1
                            continue
                        assert math.isfinite(value), (t, r)
                        outcomes["finite"] += 1
        assert min(outcomes.values()) > 1000


class TestDeltaSum:
    def test_constant(self):
        f = GridFn.constant(Grid(0.0, 10), 1.0)
        assert delta_sum(f, 0.0, 5.0) == 5.0

    def test_empty(self):
        f = GridFn.constant(Grid(0.0, 10), 3.0)
        assert delta_sum(f, 3.0, 3.0) == 0.0
        assert delta_sum(f, 6.0, 2.0) == 0.0

    def test_identity_fn(self):
        f = GridFn.from_callable(Grid(0.0, 10), lambda x: x)
        assert delta_sum(f, 0.0, 4.0) == 6.0  # 0+1+2+3

    def test_off_grid_bound_raises(self):
        f = GridFn.constant(Grid(0.0, 10), 1.0)
        with pytest.raises(OffGridError):
            delta_sum(f, 0.5, 3.5)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_telescoping(self, values):
        # summing the forward difference of F telescopes to F(b+1) - F(a)
        big_f = GridFn(Grid(0.0, len(values)), np.array(values))
        diffs = GridFn(Grid(0.0, len(values) - 1), np.diff(big_f.values))
        got = delta_sum(diffs, 0.0, float(len(values) - 1))
        expect = values[-1] - values[0]
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-9)


class TestJumps:
    def test_forward(self):
        assert jump_forward(0.3) == pytest.approx(1.3)

    def test_backward(self):
        assert jump_backward(1.3) == pytest.approx(0.3)

    def test_inverse_pair(self):
        for x in (-2.4, 0.0, 7.7):
            assert jump_forward(jump_backward(x)) == pytest.approx(x)


class TestGridTypes:
    def test_point_arithmetic_is_drift_free(self):
        # membership and indexing round-trip exactly at any offset because
        # points are (base, integer index) pairs, not accumulated floats
        g = Grid(0.3, 5000)
        for k in (0, 1, 499, 4999):
            assert g.index_of(g.point(k)) == k
        assert np.max(np.abs(np.diff(g.points) - 1.0)) < 1e-12

    def test_index_snapping(self):
        g = Grid(0.3, 10)
        assert g.index_of(0.3 + 4) == 4
        assert (0.3 + 7) in g
        assert 0.8 not in g

    def test_off_grid_evaluation_raises(self):
        f = GridFn.constant(Grid(0.0, 5), 2.0)
        with pytest.raises(OffGridError):
            f(2.5)
        with pytest.raises(OffGridError):
            f(11.0)

    def test_empty_grid(self):
        g = Grid(1.0, 0)
        assert g.count == 0
        with pytest.raises(ValueError):
            Grid(0.0, -1)

    def test_values_are_immutable(self):
        f = GridFn.constant(Grid(0.0, 4), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 7.0

    def test_hilfer_order_eta(self):
        order = HilferOrder(0.7, 0.5)
        assert order.eta == pytest.approx(0.85, abs=1e-15)
        assert order.inner_sum_order == pytest.approx(0.15, abs=1e-15)
        assert order.outer_sum_order == pytest.approx(0.15, abs=1e-15)
        assert HilferOrder(0.3, 0.0).eta == pytest.approx(0.3)
        assert HilferOrder(0.3, 1.0).eta == pytest.approx(1.0)

    def test_hilfer_order_validation(self):
        with pytest.raises(ValueError):
            HilferOrder(1.0, 0.5)
        with pytest.raises(ValueError):
            HilferOrder(0.5, 1.2)

    @given(mu=st.floats(0.01, 0.99), nu=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_eta_stays_in_unit_interval(self, mu, nu):
        order = HilferOrder(mu, nu)
        assert 0.0 < order.eta <= 1.0
