"""Grid substrate: falling factorials, monomials, sums, jump operators."""

import json
import math
import re
import struct
import sys
from dataclasses import replace

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

from conftest import run_python


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

    def test_huge_integer_order_stops_at_the_first_zero_or_overflow(self):
        # a loop over every factor would not end; a fresh interpreter under
        # a timeout keeps such a loop from hanging the suite
        code = (
            "import json\n"
            "from hilfer_dfc.grid import falling_factorial\n"
            "out = []\n"
            "for t, r in ((0.5, 1e300), (0.5, -1e300), (3.0, 1e300), (4.0, 1e300), (-7.0, -1e300)):\n"
            "    try:\n"
            "        v = falling_factorial(t, r)\n"
            "        out.append(repr(v))\n"
            "    except ArithmeticError as exc:\n"
            "        out.append(type(exc).__name__)\n"
            "print(json.dumps(out))\n"
        )
        proc = run_python(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # 1e300 is even: 3.0 leaves an even count of negative factors after
        # its zero (i = 4 ... 1e300 - 1), 4.0 an odd one
        expect = ["OverflowError", "0.0", "0.0", "-0.0", "SingularGammaError"]
        assert json.loads(proc.stdout) == expect

    def test_huge_integer_order_log_form_returns(self):
        # one log per factor would not end at |r| = 1e300; the long form
        # reads the log sums off log-gammas of their ends
        code = (
            "import json\n"
            "from hilfer_dfc.grid import falling_factorial_sign_logmag\n"
            "out = []\n"
            "for t, r in ((-0.5, 1e300), (0.5, -1e300), (0.5, 1e300), (3.0, 1e300), (-7.0, -1e300)):\n"
            "    try:\n"
            "        out.append(list(falling_factorial_sign_logmag(t, r)))\n"
            "    except ArithmeticError as exc:\n"
            "        out.append(type(exc).__name__)\n"
            "print(json.dumps(out))\n"
        )
        proc = run_python(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        mp = TestGammaOracle._mp()
        with mp.workdps(40):
            m = mp.mpf(1e300)
            expect = [
                # (-0.5)(-1.5)...: Gamma(r + 0.5) / Gamma(0.5), an even count of signs
                (1.0, mp.loggamma(m + 0.5) - mp.loggamma(0.5)),
                # 1 / (1.5 * 2.5 * ... * (m + 0.5))
                (1.0, mp.loggamma(1.5) - mp.loggamma(m + 1.5)),
                # 0.5 times -(0.5)(1.5)...(m - 1.5): an odd count of signs
                (-1.0, mp.log(0.5) + mp.loggamma(m - 0.5) - mp.loggamma(0.5)),
            ]
            for (sign, logmag), (e_sign, e_log) in zip(out, expect):
                assert sign == e_sign and abs(logmag - e_log) <= 1e-14 * abs(e_log)
        assert out[3:] == [[0.0, -math.inf], "SingularGammaError"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_integer_order_log_form_meets_the_factor_loop(self, seed):
        # past 256 factors the log sum comes from log-gammas of its ends;
        # the loop it replaces sums one log per factor
        def every_factor(t, ri):
            sign, logmag = 1.0, 0.0
            for i in range(ri) if ri >= 0 else range(-1, ri - 1, -1):
                if ri < 0 and abs(t - i) <= INTEGER_SNAP:
                    return "singular"
                if t - i == 0.0:
                    return 0.0, -math.inf
                sign *= math.copysign(1.0, t - i)
                logmag += math.log(abs(t - i))
            return (sign, logmag) if ri >= 0 else (sign, -logmag)

        rng = np.random.default_rng(seed)
        for _ in range(150):
            ri = int(rng.integers(257, 6000)) * int(rng.choice([-1, 1]))
            k = int(rng.integers(-2 * abs(ri), 2 * abs(ri)))
            # near an integer (within 1e-15 to 1e-3), on one, or anywhere
            t = float(rng.choice([k + rng.choice([-1, 1]) * 10 ** rng.uniform(-15, -3), k,
                                  rng.uniform(-3, 3) * abs(ri)]))
            expect = every_factor(t, ri)
            if expect == "singular":
                with pytest.raises(SingularGammaError):
                    falling_factorial_sign_logmag(t, float(ri))
                continue
            sign, logmag = falling_factorial_sign_logmag(t, float(ri))
            assert sign == expect[0], (t, ri)
            if sign:
                assert abs(logmag - expect[1]) <= 1e-13 * abs(expect[1]), (t, ri)
            else:
                assert logmag == -math.inf

    def test_integer_order_sweep_matches_every_factor_loop(self):
        # the product over every factor, as falling_factorial's conventions
        # read it, against the loop that stops at the first zero or
        # overflow: value bits (signed zeros too), exception types and messages
        def every_factor(t, r):
            ri = round(r)
            out = 1.0
            for i in range(ri) if ri >= 0 else range(-1, ri - 1, -1):
                if ri < 0 and abs(t - i) <= INTEGER_SNAP:
                    raise SingularGammaError(f"falling_factorial({t!r}, {r!r}) is singular")
                out *= t - i
            if ri < 0:
                return 1.0 / out
            if not math.isfinite(out):
                if 0.0 <= t < ri and t == math.floor(t):
                    return 0.0
                raise OverflowError(f"falling_factorial({t!r}, {r!r}) is past the float range")
            return out

        def outcome(fn, t, r):
            try:
                return "value", struct.pack("<d", fn(t, r))
            except ArithmeticError as exc:
                return type(exc), str(exc)

        rng = np.random.default_rng(18)
        kinds = {"value": 0, OverflowError: 0, SingularGammaError: 0, "signed zero": 0}
        for k in range(300):
            r = float(round(math.exp(rng.uniform(0.0, math.log(1e5))))) * (1 - 2 * (k % 2))
            t = (
                float(rng.integers(0, 400)),  # a zero factor, before or after overflow
                float(-rng.integers(1, 2000)),  # a pole for r < 0, maybe past overflow
                float(rng.uniform(-2000.0, 2000.0)),
                float(rng.integers(-400, 400)) + float(rng.choice([5e-10, -5e-10, 2e-9])),
                float(rng.uniform(-3.0, 3.0)),
            )[k % 5]
            expect = outcome(every_factor, t, r)
            assert outcome(falling_factorial, t, r) == expect, (t, r)
            kinds[expect[0]] += 1
            kinds["signed zero"] += expect[1] == struct.pack("<d", -0.0)
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda x: falling_factorial(x, 2.5), "t"),
            (lambda x: falling_factorial(2.0, x), "r"),
            (lambda x: falling_factorial_sign_logmag(x, 2.0), "t"),
            (lambda x: falling_factorial_sign_logmag(2.0, x), "r"),
            (lambda x: taylor_monomial(x, 2.0, 0.0), "r"),
            (lambda x: taylor_monomial(2.0, x, 0.0), "t"),
            (lambda x: taylor_monomial(2.0, 5.0, x), "s"),
        ],
        ids=["ff-t", "ff-r", "logmag-t", "logmag-r", "monomial-r", "monomial-t", "monomial-s"],
    )
    def test_non_finite_argument_is_named(self, call, name, bad):
        # not reported as overflow, nor returned as a value
        with pytest.raises(ValueError, match=rf"^{name} must be finite: got {bad!r}$"):
            call(bad)

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

    def test_log_form_past_the_float_range_names_the_call(self):
        # Gamma(r+1) is past the float range, so the value is exp of the
        # log form, 5.7e384; math.exp raised a bare "math range error"
        with pytest.raises(OverflowError, match=r"^taylor_monomial\(2000\.5, 2300\.0, 0\.0\) is past the float range$"):
            taylor_monomial(2000.5, 2300.0, 0.0)

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
        # integer orders at t within INTEGER_SNAP of an integer in [0, r):
        # a factor is tiny, not 0.0, so no form of the value is zero
        k = rng.integers(0, 11, 100)
        near_t = k + rng.choice([-1.0, 1.0], 100) * 10 ** rng.uniform(-12, -9.5, 100)
        t_values = np.concatenate([t_values, [3 + 5e-10], near_t])
        r_values = np.concatenate([r_values, [5.0], rng.integers(k + 1, 12).astype(float)])
        checked = 0
        for t, r in zip(map(float, t_values), map(float, r_values)):
            try:
                ff = falling_factorial(t, r)
                logform = _via_logmag(t, r)
                mono = _monomial(t, r)
            except SingularGammaError:
                continue
            # the gamma arguments as the library forms them in float64: next
            # to a pole the ratio amplifies the rounding of t - r + 1, which
            # is conditioning of the inputs, not error of the gamma layer.
            # An integer order forms none: it multiplies the exact t - i
            num, den = mp.mpf(t + 1.0), mp.mpf(t - r + 1.0)
            if r == round(r):
                num, den = mp.mpf(t) + 1, mp.mpf(t) - r + 1
            if den <= 0 and den == mp.floor(den):
                expect = mp.mpf(0)
            else:
                expect = mp.gamma(num) / mp.gamma(den)
            for got, ref in ((ff, expect), (logform, expect), (mono, expect / mp.gamma(mp.mpf(r + 1.0)))):
                assert abs(mp.mpf(got) - ref) <= 1e-12 * abs(ref), (t, r)
            checked += 1
        assert checked > 800

    @pytest.mark.parametrize("t", [1e-12, 3.1e-11, 1e-6])
    @pytest.mark.parametrize("r", [257, 300, 1000])
    def test_long_integer_order_keeps_a_small_first_factor(self, t, r):
        # the factor t itself must not be formed as (t - 1) + 1, which
        # rounds its low digits off; the monomial's exp of the log form
        # loses eps |logmag| more, about 1e-12 at r = 1000
        mp = self._mp()
        ff = mp.ff(mp.mpf(t), r)
        sign, logmag = falling_factorial_sign_logmag(t, float(r))
        assert sign == mp.sign(ff) and abs(logmag - mp.log(abs(ff))) <= 1e-11
        monomial = ff / mp.factorial(r)
        assert abs(taylor_monomial(float(r), t, 0.0) - monomial) <= 1e-11 * abs(monomial)

    @pytest.mark.parametrize("r, t", [(169.5, 3900.0), (168.25, 4200.0), (165.5, 5000.0)])
    def test_power_cut_into_parts_near_the_top_of_the_float_range(self, r, t):
        # r log(t+1) passes 1400, so the power is cut into power-of-two
        # parts instead of halved; the last value, 1.38e314, raises
        mp = self._mp()
        with mp.workdps(60):
            expect = mp.gamma(mp.mpf(t) + 1) / mp.gamma(mp.mpf(t) - r + 1) / mp.gamma(mp.mpf(r) + 1)
        if expect > sys.float_info.max:
            with pytest.raises(OverflowError, match=rf"^taylor_monomial\({r!r}, {t!r}, 0\.0\) is past"):
                taylor_monomial(r, t, 0.0)
        else:
            assert abs(taylor_monomial(r, t, 0.0) - expect) <= 1e-13 * expect

    def test_small_arguments_are_a_gamma_quotient(self):
        # below Stirling's range exp of an lgamma difference was up to
        # 45 eps off the exact ratio at the same float arguments, the
        # math.gamma quotient 4.2 eps
        mp = self._mp()
        eps = np.finfo(float).eps
        rng = np.random.default_rng(31)
        for t, r in zip(rng.uniform(-0.9, 14.0, 300), rng.uniform(-1.0, 1.0, 300)):
            t, r = float(t), float(r)
            with mp.workdps(40):
                ratio = mp.gamma(t + 1.0) / mp.gamma(t - r + 1.0)
                monomial = ratio / mp.gamma(r + 1.0)
                assert abs(falling_factorial(t, r) - ratio) <= 6 * eps * abs(ratio), (t, r)
                assert abs(taylor_monomial(r, t, 0.0) - monomial) <= 6 * eps * abs(monomial), (t, r)

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
        # Stirling's range three lgamma calls were up to 1e-15 off near
        # the zeros of lgamma at 1 and 2 (1.1e-15 here); the math.gamma
        # quotient holds 4.3e-16.
        mp = self._mp()
        rng = np.random.default_rng(29)
        for t, r in zip(10 ** rng.uniform(0.0, 300.0, 600), rng.uniform(-1.0, 1.0, 600)):
            t, r = float(t), float(r)
            with mp.workdps(330):
                log_ratio = mp.loggamma(mp.mpf(t) + 1) - mp.loggamma(mp.mpf(t) - mp.mpf(r) + 1)
                expect = mp.exp(log_ratio) / mp.gamma(mp.mpf(r) + 1)
                error = abs(taylor_monomial(r, t, 0.0) - expect) / expect
            assert error <= 1e-15, (t, r)
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

    def test_integer_order_monomial_keeps_its_digits(self):
        # (t-s)^[r] / Gamma(r+1) for integer r > t + 1: exp of the log form
        # lost eps |log| of two huge gammas (2.9e-10 at r = 2e5); the
        # reflection through Gamma(r-t) / Gamma(-t) keeps a few ulps
        mp = self._mp()
        with mp.workdps(60):
            for r, t in [(2e5, 5.5), (3e4, 7.25), (5000.0, 1e-12), (300.0, 2.5), (1000.0, 5.5), (2e5, 0.25)]:
                x, order = mp.mpf(t), mp.mpf(r)
                expect = mp.gamma(x + 1) / mp.gamma(x - order + 1) / mp.gamma(order + 1)
                error = abs(taylor_monomial(r, t, 0.0) - expect) / abs(expect)
                assert error <= 1e-13, (r, t)

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

    @pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf])
    def test_non_finite_base_is_named(self, base):
        # Grid(nan, 3) built, and reading a point of a sum on it raised
        # "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=rf"^base must be finite: got {base!r}$"):
            Grid(base, 3)

    @pytest.mark.parametrize("count", [3.5, 3.0, "3"])
    def test_non_integral_count_is_named(self, count):
        # Grid(0.0, 3.5) built, then refused every array as "expected 3.5 values"
        with pytest.raises(ValueError, match=rf"^count must be an integer: got {count!r}$"):
            Grid(0.0, count)

    @pytest.mark.parametrize("base", [0.0, 2.5, 1e10 + 0.3, 2.0**52, -(2.0**52), 2.0**53 - 5.0])
    def test_bases_with_unit_steps_build(self, base):
        g = Grid(base, 5)
        assert np.array_equal(g.points - base, np.arange(5.0))
        assert [g.index_of(x) for x in g.points] == list(range(5))

    @pytest.mark.parametrize(
        "base, count",
        [(1e17, 5), (-1e17, 5), (2.0**53, 3), (2.0**53 - 2.0, 5), (2.0**52 - 0.5, 4), (0.3, 2**53)],
    )
    def test_base_without_distinct_unit_steps_is_named(self, base, count):
        # Grid(1e17, 5).points were five copies of 1e17; past 2^53, and
        # where a fractional base rounds on the way there, base + k is not
        # the k-th point
        with pytest.raises(ValueError, match=rf"^base {re.escape(repr(base))}: its {count} points are not distinct unit steps$"):
            Grid(base, count)

    def test_a_huge_base_holds_one_point(self):
        assert Grid(1e17, 1).points.tolist() == [1e17]
        assert Grid(1e17, 0).count == 0

    def test_numpy_integers_are_counts(self):
        g = Grid(np.float64(0.5), np.int64(4))
        assert g.points.tolist() == [0.5, 1.5, 2.5, 3.5]
        assert GridFn(g, np.arange(4.0))(2.5) == 2.0

    def test_values_are_immutable(self):
        f = GridFn.constant(Grid(0.0, 4), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 7.0

    def test_a_callers_array_is_copied(self):
        # the public constructor never takes over its argument, which the
        # caller may go on writing to
        vals = np.arange(5.0)
        f = GridFn(Grid(0.0, 5), vals)
        vals[0] = 9.0
        assert f.values[0] == 0.0 and vals.flags.writeable
        assert not np.shares_memory(f.values, vals)
        with pytest.raises(ValueError):
            GridFn(Grid(0.0, 4), vals)

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

    def test_hilfer_order_eta_is_derived_not_passed(self):
        # a third argument used to be accepted and silently overwritten
        with pytest.raises(TypeError):
            HilferOrder(0.5, 0.5, 0.9)
        with pytest.raises(TypeError):
            HilferOrder(0.5, 0.5, eta=0.9)
        order = HilferOrder(0.5, 0.5)
        assert order.eta == 0.75
        assert repr(order) == "HilferOrder(mu=0.5, nu=0.5, eta=0.75)"
        assert order == HilferOrder(0.5, 0.5) and order != HilferOrder(0.5, 0.25)
        assert replace(order, nu=0.25).eta == HilferOrder(0.5, 0.25).eta

    @given(mu=st.floats(0.01, 0.99), nu=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_eta_stays_in_unit_interval(self, mu, nu):
        order = HilferOrder(mu, nu)
        assert 0.0 < order.eta <= 1.0
