"""Discrete Mittag-Leffler series: reductions, termination, identities."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import in_fresh_thread, in_threads, ld_recursion, stratified_cases
from hilfer_dfc import (
    ContourError,
    MlParams,
    SeriesConvergenceError,
    SeriesCtl,
    falling_factorial,
    ml_eval,
    ml_lattice,
    ml_lattice_solution,
    ml_plain,
    sum_kernel,
    taylor_monomial,
)
from hilfer_dfc.grid import _WORKSPACE_MAX, SingularGammaError, _smooth_length
from hilfer_dfc.mittag_leffler import _LATTICE_MAX, _certify, _contour, _pole, _workspace


def _term(mu, eta, gamma, lam, z, k):
    """Term k of the plain series at z, in floats."""
    coeff = lam**k * math.prod((gamma + i) / (i + 1) for i in range(k))
    return coeff * taylor_monomial(k * mu + eta - 1.0, z + k * (mu - 1.0), 0.0)


class TestParams:
    def test_lambda_magnitude_enforced(self):
        with pytest.raises(ValueError):
            MlParams(mu=0.5, lam=1.0)
        with pytest.raises(ValueError):
            MlParams(mu=0.0, lam=0.5)


class TestReductions:
    def test_lambda_zero_keeps_only_first_term(self):
        p = MlParams(mu=0.8, eta=0.6, lam=0.0)
        for n in range(10):
            z = n + p.eta - 1.0
            expect = falling_factorial(z, p.eta - 1.0) / math.gamma(p.eta)
            assert ml_plain(p, z) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("lam", [0.1, -0.1, 0.5, -0.5])
    def test_binomial_identity_at_unit_order(self, lam):
        # at lam = -0.5, n = 20 the alternating sum cancels terms of size
        # ~1e2 down to ~4e-6, so the natural scale for the error is the
        # term size, not the tiny result: measure absolute-below-1 error
        p = MlParams(mu=1.0, eta=1.0, lam=lam)
        for n in range(21):
            got = ml_plain(p, float(n))
            expect = (1.0 + lam) ** n
            err = abs(got - expect) / max(1.0, abs(expect))
            assert err < 1e-11

    def test_bold_lambda_zero(self):
        p = MlParams(mu=0.8, eta=0.6, lam=0.0)
        z = 4.0
        expect = falling_factorial(z + p.eta - 1.0, p.eta - 1.0) / math.gamma(p.eta)
        assert ml_eval(p, z, bold=True).value == pytest.approx(expect, rel=1e-13)

    def test_bold_plain_shift_identity(self):
        for mu, eta, lam in ((0.7, 0.85, 0.2), (0.5, 0.5, -0.3), (0.9, 0.3, 0.45)):
            p = MlParams(mu=mu, eta=eta, lam=lam)
            for n in range(15):
                assert ml_eval(p, float(n), bold=True).value == pytest.approx(
                    ml_plain(p, n + eta - 1.0), rel=1e-12, abs=1e-12
                )

    def test_bold_equals_plain_when_eta_is_one(self):
        p = MlParams(mu=0.6, eta=1.0, lam=0.4)
        for n in range(12):
            assert ml_eval(p, float(n), bold=True).value == ml_plain(p, float(n))


class TestTermination:
    def test_terminates_after_n_plus_one_terms(self):
        p = MlParams(mu=0.8, eta=1.0, lam=0.1)
        ev = ml_eval(p, 5.0)
        assert ev.exact
        assert ev.terms_used == 6
        terms = [_term(0.8, 1.0, 1.0, 0.1, 5.0, k) for k in range(7)]
        assert all(t != 0.0 for t in terms[:6]) and terms[6] == 0.0
        assert ev.value == pytest.approx(sum(terms), rel=1e-14)

    def test_termination_on_solution_lattice(self):
        for mu, nu in ((0.7, 0.5), (0.5, 0.0), (0.5, 1.0), (0.3, 0.8)):
            eta = mu + nu - mu * nu
            p = MlParams(mu=mu, eta=eta, lam=0.3)
            for n in range(12):
                ev = ml_eval(p, n + eta - 1.0)
                assert ev.exact
                assert ev.terms_used == n + 1

    def test_resonant_parameters_match_direct_recursion(self):
        # mu=0.5 with eta in {0.5, 1.0} is where the polynomial continuation
        # of the falling factorial would re-enter with spurious nonzero
        # terms past k = n; the series must ignore them
        for eta in (0.5, 1.0):
            p = MlParams(mu=0.5, eta=eta, lam=0.3)
            kernel = [1.0]
            for lag in range(1, 13):
                kernel.append(kernel[-1] * (lag - 1 + p.mu) / lag)
            mono = [1.0]
            for n in range(1, 13):
                mono.append(mono[-1] * (n - 1 + eta) / n)
            y = [1.0]
            for n in range(1, 13):
                acc = sum(kernel[n - j] * y[j - 1] for j in range(1, n + 1))
                y.append(mono[n] + p.lam * acc)
            for n in range(13):
                got = ml_plain(p, n + eta - 1.0)
                assert got == pytest.approx(y[n], rel=1e-12, abs=1e-12)

    def test_off_lattice_truncation(self):
        p = MlParams(mu=0.8, eta=0.9, lam=0.2)
        ev = ml_eval(p, 4.321, SeriesCtl(tol=1e-12))
        assert not ev.exact
        terms = [_term(0.8, 0.9, 1.0, 0.2, 4.321, k) for k in range(ev.terms_used)]
        assert all(abs(t) < 1e-12 for t in terms[-3:]) and abs(terms[-4]) >= 1e-12
        assert ev.value == pytest.approx(sum(terms), rel=1e-14)
        assert ev.condition == pytest.approx(sum(map(abs, terms)) / abs(sum(terms)), rel=1e-14)

    def test_cancelled_off_lattice_sum_raises(self):
        # terms of total size 2.9e17 sum to -2.6e-4: roundoff of eps * 2.9e17
        # leaves no digit of the value
        with pytest.raises(SeriesConvergenceError, match="cancels"):
            ml_eval(MlParams(mu=0.8, eta=0.4, gamma=1.3, lam=-0.5), 120.3)

    def test_nonconvergence_raises(self):
        p = MlParams(mu=0.8, eta=0.9, lam=0.9)
        with pytest.raises(SeriesConvergenceError):
            ml_eval(p, 25.5, SeriesCtl(tol=1e-30))
        # mu = 1 has no rate rule: the terms shrink only from k ~ 700 on
        with pytest.raises(SeriesConvergenceError, match="within 512 terms"):
            ml_eval(MlParams(mu=1.0, lam=0.5), 700.5)

    def test_dropped_singular_term_raises(self):
        # the terms fall below tol from k = 21 on, but term 48's numerator
        # gamma sits on its pole at -8: the series has no value there
        p = MlParams(mu=0.55, eta=0.7, gamma=1.5, lam=0.3)
        with pytest.raises(SingularGammaError):
            _term(p.mu, p.eta, p.gamma, p.lam, 12.6, 48)
        with pytest.raises(SingularGammaError):
            ml_eval(p, 12.6)
        # with gamma = -47 the sum ends before term 48, with -48 it holds it
        small = replace(p, lam=1e-6)
        assert not ml_eval(replace(small, gamma=-47.0), 12.6).exact
        with pytest.raises(SingularGammaError):
            ml_eval(replace(small, gamma=-48.0), 12.6)


class TestSeriesStructure:
    def test_termwise_factorization(self):
        # each term of the eta=mu family factors through the addition law:
        # (z+k(mu-1))^[mu k + mu - 1]
        #   = (z+(k-1)(mu-1))^[k mu] * (z+k(mu-1))^[mu-1]
        # and the n + 1 factored terms sum to the lattice value
        mu, lam, gamma = 0.7, 0.25, 1.3
        p = MlParams(mu=mu, eta=mu, gamma=gamma, lam=lam)
        z = 9.0 + mu - 1.0
        factored = [
            lam**k
            * falling_factorial(z + (k - 1) * (mu - 1.0), k * mu)
            * falling_factorial(z + k * (mu - 1.0), mu - 1.0)
            * math.gamma(gamma + k) / math.gamma(gamma)
            / (math.gamma(k * mu + mu) * math.factorial(k))
            for k in range(10)
        ]
        for k, term in enumerate(factored):
            assert _term(mu, mu, gamma, lam, z, k) == pytest.approx(term, rel=1e-12, abs=1e-14)
        assert ml_eval(p, z).value == pytest.approx(sum(factored), rel=1e-12)

    def test_monotone_growth_in_lambda(self):
        p_small = MlParams(mu=0.7, eta=0.85, lam=0.1)
        p_large = MlParams(mu=0.7, eta=0.85, lam=0.3)
        for n in range(1, 15):
            z = n + 0.85 - 1.0
            assert ml_plain(p_small, z) < ml_plain(p_large, z)

    def test_gamma_parameter_weighting(self):
        # gamma = 2 doubles the k=1 term relative to gamma = 1: at n = 1
        # the value is 1 plus that term
        p1 = MlParams(mu=0.8, eta=1.0, gamma=1.0, lam=0.2)
        p2 = MlParams(mu=0.8, eta=1.0, gamma=2.0, lam=0.2)
        assert ml_plain(p2, 1.0) - 1.0 == pytest.approx(2.0 * (ml_plain(p1, 1.0) - 1.0), rel=1e-13)


def _mp_series(mp, mu, eta, gamma, lam, z, offset=0.0, last=None):
    """50-digit sum of the series terms k = 0..last, or, with last None,
    until a term falls below 1e-40; and the sum of the term sizes."""
    mu, eta, gamma, lam, z, offset = (mp.mpf(v) for v in (mu, eta, gamma, lam, z, offset))
    total = size = mp.mpf(0)
    for k in range(10_000 if last is None else last + 1):
        t = z + k * (mu - 1) + offset
        r = k * mu + eta - 1
        term = lam**k * mp.rf(gamma, k) / mp.factorial(k) * mp.gammaprod([t + 1], [t - r + 1, r + 1])
        total += term
        size += abs(term)
        if last is None and abs(term) < 1e-40:
            break
    return total, size


class TestScalarSeriesOracle:
    TOL = 1e-13  # of the sum of |terms|: a few eps per term, fixed before the sweep

    def test_off_lattice_sweep_against_mpmath(self):
        # both families off the lattice, gamma in (0.5, 1.5), rate
        # |lam| / (mu^mu (1-mu)^(1-mu)) <= 0.8, z down to 0, where the
        # numerator gamma crosses its poles among the first 512 terms.  Each
        # draw raises or meets the termwise sum within roundoff plus the cut
        # tail, which the truncation rule keeps below tol / (1 - rate)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        tol = SeriesCtl().tol
        rng = np.random.default_rng(20261020)
        summed = 0
        for _ in range(200):
            mu, eta, gamma = rng.uniform(0.1, 0.95), rng.uniform(0.1, 1.9), rng.uniform(0.5, 1.5)
            rate = rng.uniform(0.0, 0.8)
            lam = rng.choice((-1.0, 1.0)) * rate * mu**mu * (1.0 - mu) ** (1.0 - mu)
            z, bold = rng.uniform(0.0, 60.0), rng.uniform() < 0.5
            try:
                ev = ml_eval(MlParams(mu, eta, gamma, lam), z, bold=bold)
            except SeriesConvergenceError:
                continue
            assert not ev.exact
            expect, size = _mp_series(mp, mu, eta, gamma, lam, z, eta - 1.0 if bold else 0.0)
            bound = self.TOL * size + tol / (1.0 - rate)
            assert abs(mp.mpf(ev.value) - expect) <= bound, (mu, eta, gamma, lam, z, bold)
            summed += 1
        assert summed >= 100

    def test_terms_rising_past_the_cut_are_summed(self):
        # the terms fall to 7e-15 near k = 26, then rise to 9e-12 at k = 32,
        # where the numerator gamma's argument passes -1 at 0.004: a cut
        # after three small terms left an error of 1.2e-11
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        args = (0.4920103635374993, 0.5538144662035256, 1.0267372172997924, 0.36327976761396114)
        ev = ml_eval(MlParams(*args), 14.259843923197133)
        expect, size = _mp_series(mp, *args, 14.259843923197133)
        assert ev.terms_used > 40
        assert abs(mp.mpf(ev.value) - expect) <= self.TOL * size + 1e-14 / (1.0 - 0.7265)

    def test_convergent_off_lattice_value_against_mpmath(self):
        # rate |lam| / (mu^mu (1-mu)^(1-mu)) = 0.9: the terms fall, slowly
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        ev = ml_eval(MlParams(mu=0.5, eta=1.0, lam=0.45), 10.3)
        assert not ev.exact
        expect, size = _mp_series(mp, 0.5, 1.0, 1.0, 0.45, 10.3)
        # the cut tail is about tol / (1 - rate)
        assert abs(mp.mpf(ev.value) - expect) <= 1e-12 * size

    @pytest.mark.parametrize(
        "mu, eta, gamma, lam, z",
        [
            (0.5, 1.0, 1.0, 0.6, 10.3),  # rate 1.2
            (0.15099786340608712, 0.3495867483767302, 0.8442201896021259,
             -0.7877801511160267, 177.43824521694432),  # rate 1.2, falls to 1e-30 first
        ],
    )
    def test_divergent_off_lattice_series_raises(self, mu, eta, gamma, lam, z):
        with pytest.raises(SeriesConvergenceError, match="diverges"):
            ml_eval(MlParams(mu, eta, gamma, lam), z)

    def test_zero_pochhammer_factor_ends_a_divergent_rate(self):
        # gamma = -2: (gamma)_k vanishes from k = 3 on, whatever the rate
        ev = ml_eval(MlParams(mu=0.5, eta=1.0, gamma=-2.0, lam=0.9), 10.3)
        assert ev.exact and ev.terms_used == 3

    def test_divergence_rule_spares_the_lattice_and_mu_one(self):
        assert ml_eval(MlParams(mu=0.5, eta=1.0, lam=0.9), 30.0).exact
        assert not ml_eval(MlParams(mu=1.0, eta=1.0, lam=0.9), 30.5).exact


def _mp_lattice_point(mp, mu, eta, lam, n, gamma=1.0):
    """Sum of the n+1 lattice terms lam^k (gamma)_k / k! C_{k mu + eta}[n-k],
    and the sum of their sizes, at 30 digits past the log10 of that size
    from a first 15-digit pass: an absolute error far below 1e-25."""

    def terms(dps):
        mp.mp.dps = dps
        m, e, g, x = (mp.mpf(v) for v in (mu, eta, gamma, lam))
        coeff, out = mp.mpf(1), []
        for k in range(n + 1):
            if k:
                coeff *= x * (g + k - 1) / k
            out.append(coeff * mp.rf(k * m + e, n - k) / mp.factorial(n - k))
        return out

    size = sum(abs(t) for t in terms(15))
    exact = terms(30 + max(0, int(mp.log10(size)) if size else 0))
    return sum(exact), sum(abs(t) for t in exact)


class TestLatticeRoute:
    # relative above 1, absolute below it: the trapezoid sum carries roundoff
    # of about eps r^-n mean|U| >= eps |U(0)| = eps, so values far below 1
    # (for lam < 0 they decay like n^(eta - gamma mu - 1)) carry it absolutely
    TOL = 1e-12

    def test_positive_lam_lattice_points_within_the_term_scale(self):
        # lattice points n <= 400 of both families with gamma != 1 and
        # lam > 0, read from the transform, against the 50-digit sum of the
        # n + 1 terms.  The terms are all positive, so 1e-13 of their sum is
        # 1e-13 of the value: stricter than TOL for every value
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(20261018)
        for _ in range(60):
            mu, eta, gamma = rng.uniform(0.2, 0.95), rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.5)
            lam, n, bold = rng.uniform(0.05, 0.95), int(rng.integers(0, 401)), rng.uniform() < 0.5
            z = float(n) if bold else n + eta - 1.0
            ev = ml_eval(MlParams(mu, eta, gamma, lam), z, bold=bold)
            expect, size = _mp_series(mp, mu, eta, gamma, lam, z, eta - 1.0 if bold else 0.0, n)
            assert abs(mp.mpf(ev.value) - expect) <= 1e-13 * size, (mu, eta, gamma, lam, n, bold)

    def test_lattice_points_against_mpmath(self):
        # both families, lam in (-1, 1), gamma in (0.5, 1.5) and the
        # polynomial and higher-order edges, where ml_eval reads the transform
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261019)
        for i in range(80):
            mu, eta, lam = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.9), rng.uniform(-0.99, 0.99)
            gamma = rng.uniform(0.5, 1.5) if i % 2 else (0.0, -1.0, -2.0, 2.5)[i // 2 % 4]
            n, bold = int(rng.integers(0, 400)), rng.uniform() < 0.5
            ev = ml_eval(MlParams(mu, eta, gamma, lam), float(n) if bold else n + eta - 1.0, bold=bold)
            expect, _ = _mp_lattice_point(mp, mu, eta, lam, n, gamma)
            assert ev.exact and ev.terms_used == n + 1
            assert abs(mp.mpf(ev.value) - expect) <= self.TOL * max(abs(expect), 1), (mu, eta, gamma, lam, n)

    @pytest.mark.parametrize("gamma", [4.0, 10.0])
    def test_high_order_pole_keeps_its_aliases_small(self, gamma):
        # D^-gamma poles to order gamma at z*: on the order-1 contour the
        # aliased coefficients made gamma = 10 off by 4e-4 at n = 200
        mp = pytest.importorskip("mpmath")
        for mu, eta, lam, n in ((0.7, 0.6, 0.5, 200), (0.5, 0.9, 0.9, 50), (0.7, 0.6, 0.5, 10)):
            expect, _ = _mp_lattice_point(mp, mu, eta, lam, n, gamma)
            got = ml_plain(MlParams(mu, eta, gamma, lam), n + eta - 1.0)
            assert abs(mp.mpf(got) - expect) <= self.TOL * abs(expect), (mu, eta, lam, n)

    def test_orders_past_one_are_certified_by_their_crossings(self):
        # for mu > 1 and lam < 0, D's path reaches Re D < 0: at mu = 2 it
        # crosses the negative real axis as often each way, and at mu = 3 a
        # zero of D lies inside the unit circle
        mp = pytest.importorskip("mpmath")
        expect, _ = _mp_lattice_point(mp, 2.0, 0.8, -0.5, 100, 2.5)
        got = ml_plain(MlParams(2.0, 0.8, 2.5, -0.5), 99.8)
        assert abs(mp.mpf(got) - expect) <= self.TOL * abs(expect)
        with pytest.raises(ContourError, match="inside the contour"):
            ml_plain(MlParams(3.0, 0.8, 2.5, -0.5), 99.8)

    def test_transform_size_is_bounded_before_allocation(self):
        with pytest.raises(OverflowError, match="points"):
            ml_eval(MlParams(mu=0.5, gamma=1e9, lam=0.5), 3.0)

    def test_cancelling_sum_from_the_transform(self):
        # terms of total size 5.1e20 sum to -2.076e-4; the former termwise
        # sum returned 893867.13
        ev = ml_eval(MlParams(mu=0.8, eta=0.4, gamma=1.3, lam=-0.6), 120.0, bold=True)
        assert ev.value == pytest.approx(-2.0760175647701864e-4, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.9, -0.9])
    def test_nonpositive_integer_gamma_is_a_polynomial_in_d(self, lam):
        # gamma = 0 leaves (1-z)^-eta, whatever the zero z* of D; gamma = -1
        # adds -lam z (1-z)^-(eta + mu), and gamma = -2 twice that and
        # lam^2 z^2 (1-z)^-(eta + 2 mu)
        mu, eta = 0.6, 0.7
        first = sum_kernel(eta, 300)
        cross = lam * sum_kernel(eta + mu, 299)
        second, third = first.copy(), first.copy()
        second[1:] -= cross
        third[1:] -= 2.0 * cross
        third[2:] += lam**2 * sum_kernel(eta + 2.0 * mu, 298)
        for gamma, expect in ((0.0, first), (-1.0, second), (-2.0, third)):
            got = ml_lattice(MlParams(mu, eta, gamma, lam), 300)
            assert np.max(np.abs(got - expect) / np.maximum(np.abs(expect), 1.0)) <= 1e-13

    @pytest.mark.xfail(strict=True, reason="the transform's roundoff is not reported (ROADMAP item 8)")
    def test_high_polynomial_power_keeps_its_first_entries(self):
        # E[1] = eta - gamma lam = 0.7 + 50 * 0.3 exactly; the 104-entry
        # transform it is read from rises to 6e16, and its roundoff leaves
        # 15.6999726 here, with exact_termination true and nothing reported
        assert ml_eval(MlParams(0.5, 0.7, -50.0, -0.3), 0.7).value == pytest.approx(15.7, rel=1e-12)

    @pytest.mark.parametrize("lam, mu, eta, count", [
        (lam, mu, round(mu + nu - mu * nu, 4) + eta_up, steps + 1)
        for (lam, mu, nu, steps), eta_up in zip(stratified_cases(11, 8, 1.0), (0.0, 0.9) * 4)
    ])
    def test_gamma_one_is_the_plain_symbol_bit_for_bit(self, lam, mu, eta, count):
        assert np.array_equal(ml_lattice(MlParams(mu, eta, 1.0, lam), count),
                              _inverse_d_transform(mu, eta, lam, count))

    @pytest.mark.parametrize("count, lam", [(300, 0.0), (2000, 0.0), (2000, 0.5), (48000, -0.3)])
    def test_contour_log_against_mpmath(self, count, lam):
        # near z = 1, log1p(-z) of a rounded z was 24 eps off at 2000 points
        # and 930 eps at 48000; 1 - z from sin(pi j / m) does not cancel
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        r = (1.0 - 2.0 / count) * (_pole(0.6, lam) if lam > 0 else 1.0)
        m = 2 * _smooth_length(8 * count)
        _, log_mod, arg, _, _ = _contour(r, m, 0.6, 0.8)
        for j in (1, 2, 5, m // 2):
            exact = mp.log(1 - mp.mpf(r) * mp.expjpi(mp.mpf(-2 * j) / m))
            got = mp.mpc(float(log_mod[j]), float(arg[j]))
            assert abs(got - exact) <= 4 * np.finfo(float).eps * abs(exact), j

    @pytest.mark.parametrize("count, lam", [(300, 0.0), (2000, 0.5), (48000, -0.3)])
    @pytest.mark.parametrize("mu, eta", [(0.05, 0.6), (1.0, 2.5), (3.0, 0.6)])
    def test_contour_powers_against_mpmath(self, count, lam, mu, eta):
        # each power's cos and sin come from tan(e arg / 2); past e = 2 that
        # angle passes pi/2 where arg(1 - z) peaks, at cos(2 pi j / m) = r,
        # and tan wraps.  exp(-e log|1 - z|) of a rounded exponent is off
        # by eps/2 of that exponent, whatever the cos and sin: 10 eps at
        # 48000 points (e = 2.5, e log|1 - z| = -24), from cos and sin too
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        r = (1.0 - 2.0 / count) * (_pole(0.6, lam) if lam > 0 else 1.0)
        m = 2 * _smooth_length(8 * count)
        _, _, _, k_mu, u_eta = _contour(r, m, mu, eta)
        peak = round(m * math.acos(r) / (2.0 * math.pi))
        for j in (1, 2, 5, peak, m // 4, m // 2 - 1, m // 2):
            one_minus_z = 1 - mp.mpf(r) * mp.expjpi(mp.mpf(-2 * j) / m)
            for e, got in ((mu, k_mu[j]), (eta, u_eta[j])):
                exact = one_minus_z ** -mp.mpf(e)
                tol = (8.0 + abs(e * float(mp.log(abs(one_minus_z))))) * np.finfo(float).eps
                assert abs(mp.mpc(complex(got)) - exact) <= tol * abs(exact), (e, j)

    @pytest.mark.parametrize("m", [480, 2 * _smooth_length(8 * 300), 2 * _smooth_length(8 * 1942), 48000])
    @pytest.mark.parametrize("lam", [0.0, 0.4])
    @pytest.mark.parametrize("mu, eta", [(0.6, 0.6), (0.6, 0.8), (0.05, 2.5)])
    def test_contour_powers_keep_their_recipe_bit_for_bit(self, m, lam, mu, eta):
        # the powers run on contiguous rows, but each sample keeps its bits
        r = (1.0 - 2.0 / (m // 16)) * (_pole(mu, lam) if lam > 0 else 1.0)
        _, log_mod, arg, k_mu, u_eta = _contour(r, m, mu, eta)
        assert np.array_equal(k_mu, _power_recipe(log_mod, arg, mu))
        assert np.array_equal(u_eta, _power_recipe(log_mod, arg, eta))

    def test_negative_index_is_zero(self):
        p = MlParams(mu=0.7, eta=0.4, gamma=1.3, lam=-0.6)
        for ev in (ml_eval(p, -3.0 + 0.4 - 1.0), ml_eval(p, -1.0, bold=True)):
            assert (ev.value, ev.terms_used, ev.exact) == (0.0, 0, True)

    def test_index_and_value_past_range_raise(self):
        with pytest.raises(OverflowError, match="limit"):
            ml_eval(MlParams(mu=0.7, lam=0.2), float(_LATTICE_MAX + 1))
        with pytest.raises(OverflowError, match="float range"):
            ml_eval(MlParams(mu=0.1, lam=0.99), 5000.0)


def _power_recipe(log_mod, arg, e):
    """(1 - z)^-e from log|1 - z| and arg(1 - z) on fresh arrays, each
    operation as the transform first took it: mod (cos - i sin) of e arg
    from tau = tan(e arg / 2), sin = 2 tau / (1 + tau^2), cos = 1 - tau sin."""
    tau = np.tan(arg * (0.5 * e))
    sin = tau * 2.0 / (np.square(tau) + 1.0)
    cos = 1.0 - tau * sin
    mod = np.exp(log_mod * -e)
    out = np.empty(len(arg), complex)
    out.real, out.imag = mod * cos, -(sin * mod)
    return out


def _inverse_d_transform(mu, eta, lam, count):
    """The gamma = 1 lattice as transformed before gamma was supported:
    the coefficients of (1-z)^-eta / D(z), on the same contour samples."""
    if eta > 1.0:
        with np.errstate(over="ignore"):
            return np.cumsum(_inverse_d_transform(mu, eta - 1.0, lam, count))
    n = max(count, 16)
    r = (1.0 - 2.0 / n) * (_pole(mu, lam) if lam > 0 else 1.0)
    m = 2 * _smooth_length(8 * n)
    z, _, _, k_mu, u_eta = _contour(r, m, mu, eta)
    denom = 1.0 - lam * z * k_mu
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.power(r, -0.5 * np.arange(count))
        out = np.fft.irfft(u_eta / denom, m)[:count] * half * half
    out[:1] = 1.0
    return out


class TestLatticeTable:
    TOL = 1e-12  # relative to the sum of |terms|, fixed from float64 eps

    @pytest.mark.parametrize(
        "mu, eta, lam",
        [
            (0.05, 0.3, 0.5),
            (0.35, 1.0, 0.99),
            (0.6, 0.8, 0.9),
            (0.8, 0.05, -0.5),
            (1.0, 1.0, 0.99),
            (1.0, 0.45, -0.3),
            (0.5, 0.5, 0.3),
            (0.9, 0.95, 0.01),
        ],
    )
    def test_matches_high_precision_sum(self, mu, eta, lam):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        table = ml_lattice(MlParams(mu=mu, eta=eta, lam=lam), 301)
        for n in (0, 1, 2, 3, 10, 57, 150, 233, 300):
            expect, size = _mp_lattice_point(mp, mu, eta, lam, n)
            assert abs(mp.mpf(float(table[n])) - expect) <= self.TOL * size

    @pytest.mark.parametrize("mu, nu", [(0.7, 0.5), (0.5, 0.0), (0.5, 1.0), (0.3, 0.8)])
    @pytest.mark.parametrize("lam", [0.3, -0.4, 0.0])
    def test_matches_finite_termwise_sum(self, mu, nu, lam):
        eta = mu + nu - mu * nu
        table = ml_lattice(MlParams(mu=mu, eta=eta, lam=lam), 40)
        for n in range(40):
            terms = [_term(mu, eta, 1.0, lam, n + eta - 1.0, k) for k in range(n + 1)]
            assert abs(table[n] - sum(terms)) <= self.TOL * sum(map(abs, terms))

    def test_zero_lambda_is_the_monomial(self):
        p = MlParams(mu=0.8, eta=0.6, lam=0.0)
        table = ml_lattice(p, 10)
        for n in range(10):
            expect = math.gamma(n + 0.6) / (math.gamma(0.6) * math.factorial(n))
            assert table[n] == pytest.approx(expect, rel=1e-13)

    def test_short_tables(self):
        p = MlParams(mu=0.7, eta=0.4, lam=0.5)
        assert ml_lattice(p, 0).shape == (0,)
        assert ml_lattice(p, 1).tolist() == [1.0]
        assert ml_lattice(MlParams(mu=0.7, eta=0.4, lam=0.0), 1).tolist() == [1.0]

    @pytest.mark.parametrize("call, message", [
        (lambda p: ml_lattice(p, -2), "count must be a nonnegative integer: got -2"),
        (lambda p: ml_lattice(replace(p, eta=1.6), -2), "count must be a nonnegative integer: got -2"),
        (lambda p: ml_lattice_solution(p, -3), "count must be a nonnegative integer: got -3"),
        (lambda p: ml_lattice_solution(p, 2.5), "count must be a nonnegative integer: got 2.5"),
        (lambda p: ml_lattice_solution(p, 5, math.inf), "zeta must be finite: got inf"),
        (lambda p: ml_lattice_solution(p, 5, math.nan), "zeta must be finite: got nan"),
    ], ids=["negative-count", "negative-count-eta-above-one", "negative-solution-count",
            "fractional-count", "inf-zeta", "nan-zeta"])
    def test_bad_arguments_are_named(self, call, message):
        # these failed inside numpy (a broadcast or slice error) or gave a
        # row of inf and nan with a RuntimeWarning, or none at all
        with pytest.raises(ValueError) as info:
            call(MlParams(mu=0.7, eta=0.4, lam=0.5))
        assert str(info.value) == message

    def test_numpy_integer_counts(self):
        p = MlParams(mu=0.7, eta=0.4, lam=0.5)
        assert np.array_equal(ml_lattice(p, np.int64(40)), ml_lattice(p, 40))
        got, _ = ml_lattice_solution(p, np.int32(5), 1.5)
        assert np.array_equal(got, ml_lattice_solution(p, 5, 1.5)[0])


def transform_cases(rng):
    """(params, count, zeta) at 50, 2000, 400, 3000 and again 2000 points:
    gamma 1 and 2.5, with eta = mu and not, and zeta drawn at each count."""
    cases = []
    for count in (50, 2000, 400, 3000, 2000):
        zeta = rng.uniform(0.5, 1.5)
        cases += [
            (MlParams(0.6, 0.8, 1.0, 0.3), count, 1.3),
            (MlParams(0.6, 0.8, 2.5, 0.3), count, 1.0),
            (MlParams(0.4, 1.7, 2.5, -0.5), count, 0.6),
            (MlParams(0.45, 0.45, 1.0, 0.5), count, zeta),
            (MlParams(0.7, 0.9, 1.0, -0.6), count, zeta),
        ]
    return cases


class TestTransformWorkspace:
    def test_results_do_not_alias_the_workspace(self, rng):
        for p, count, zeta in transform_cases(rng)[5:10]:
            out, _ = ml_lattice_solution(p, count, zeta)
            kept = out.copy()
            ml_lattice_solution(p, count, -zeta)
            assert np.array_equal(out, kept)
            assert not any(np.shares_memory(out, array) for array in _workspace.kept.values())

    def test_interleaved_sizes_repeat_the_first_results(self, rng):
        # the workspace grows to 3000 points and serves the later calls
        # from the front of larger rows
        cases = transform_cases(rng)
        first = in_fresh_thread(lambda: [ml_lattice_solution(*case)[0] for case in cases])
        for _ in range(2):
            for case, expect in zip(cases, first):
                assert np.array_equal(ml_lattice_solution(*case)[0], expect)

    def test_threads_get_the_serial_results(self, rng):
        # more threads than cores, each looping over the cases in its own
        # order, switching often: shared rows would mix their samples
        cases = transform_cases(rng)
        serial = [ml_lattice_solution(*case)[0] for case in cases]
        orders = [np.roll(np.arange(len(cases)), shift) for shift in range(0, len(cases), 5)]
        results = in_threads(lambda *case: ml_lattice_solution(*case)[0], cases, orders)
        assert len(results) == len(orders) * len(cases)
        for i, out in results:
            assert np.array_equal(out, serial[i]), i

    @pytest.mark.parametrize("gamma, lam", [(1.0, 0.5), (2.5, 0.5), (2.5, -0.5)])
    def test_a_repeated_call_allocates_little_beyond_its_result(self, gamma, lam):
        # a 1943-point call allocated 2.0-2.2 MB of half-circle arrays
        # before it reused the workspace's rows, and D^(1-gamma) took about
        # six more of 250 kB each
        p = MlParams(0.45, 0.45, gamma, lam)
        ml_lattice_solution(p, 1943, 0.7)
        tracemalloc.start()
        try:
            ml_lattice_solution(p, 1943, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6

    def test_a_long_call_keeps_the_workspace_within_its_cap(self):
        # the 48000-point rows are past the cap: they serve one call, and
        # the 2000-point rows stay
        p = MlParams(0.6, 0.8, 1.0, -0.3)

        def calls():
            short = ml_lattice_solution(p, 2000)[0]
            kept = _workspace.nbytes()
            return short, kept, ml_lattice_solution(p, 48000)[0], _workspace.nbytes()

        short, kept, long, after = in_fresh_thread(calls)
        assert 0 < kept == after <= _WORKSPACE_MAX
        assert np.array_equal(ml_lattice_solution(p, 48000)[0], long)
        assert np.array_equal(ml_lattice_solution(p, 2000)[0], short)
        assert _workspace.nbytes() <= _WORKSPACE_MAX


class TestTransformEngine:
    TOL = 1e-12  # of the term scale |c_eta| + conv(k_mu, |g|), from float64 eps

    @pytest.mark.parametrize(
        "lam, mu, eta, count",
        [(lam, mu, round(mu + nu - mu * nu, 4), steps + 1)
         for lam, mu, nu, steps in stratified_cases(7, 12, 1.0)] + [(-0.995, 1.0, 1.0, 2001)],
    )
    def test_matches_extended_precision_recursion(self, lam, mu, eta, count):
        table = ml_lattice(MlParams(mu=mu, eta=eta, lam=lam), count)
        ref, scale = ld_recursion(mu, eta, lam, 1.0, count)
        finite = np.isfinite(ref)
        assert np.array_equal(np.abs(table) <= 1e300, finite)
        assert np.max(np.abs(table[finite] - ref[finite]) / scale[finite]) <= self.TOL

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.3, 0.9, 0.995])
    @pytest.mark.parametrize(
        "mu, eta", [(0.15, 0.15), (0.5, 0.8), (1.0, 1.0), (0.5, 1.5), (0.9, 1.9)]
    )
    def test_nonnegative_lam_is_accurate_relative_to_each_value(self, lam, mu, eta):
        # every term is positive for lam >= 0, so each value is its own
        # term scale
        table = ml_lattice(MlParams(mu=mu, eta=eta, lam=lam), 1200)
        ref, _ = ld_recursion(mu, eta, lam, 1.0, 1200)
        finite = np.isfinite(ref)
        assert np.array_equal(np.abs(table) <= 1e300, finite)
        assert np.max(np.abs(table[finite] - ref[finite]) / ref[finite]) <= self.TOL

    @pytest.mark.parametrize("mu, eta", [(0.15, 1.15), (0.5, 1.5), (0.9, 1.9), (1.0, 2.0), (0.7, 2.6)])
    def test_eta_above_one_is_pointwise(self, mu, eta):
        # U grows like N^eta at z = 1; transformed directly, roundoff
        # followed the largest value (7.9e-11 off at n = 1 for mu = 0.9,
        # eta = 1.9, N = 2000).  Against the extended-precision recursion
        # tables of 400 to 975 points, sampled every 25, hold 1e-13
        # (7.2e-14 at 900); from 1000 points on some reach 1.0-1.3e-13.
        kernel = sum_kernel(eta, 2000)
        table = ml_lattice(MlParams(mu=mu, eta=eta, lam=0.0), 2000)
        assert np.max(np.abs(table - kernel) / kernel) <= 1e-13
        for lam in (1e-3, 0.3, 0.9, 0.995):
            table = ml_lattice(MlParams(mu=mu, eta=eta, lam=lam), 900)
            ref, _ = ld_recursion(mu, eta, lam, 1.0, 900)
            assert np.max(np.abs(table - ref) / ref) <= 1e-13, lam

    @pytest.mark.parametrize("mu, lam", [(0.15, 0.995), (0.5, 0.3), (1.0, 0.5), (0.9, 1e-3)])
    def test_pole_is_the_real_zero(self, mu, lam):
        def f(z):  # decreasing on (0, 1)
            return (1.0 - z) ** mu - lam * z

        z = _pole(mu, lam)
        assert 0.5 < z < 1.0 and f(z) >= 0.0 > f(z + 1e-12)

    def test_certificate_signs_agree_with_the_turns(self):
        # the sign tests raise what the summed arctan2 turns raised, on the
        # same inputs: lam > 0 radii 0.5-1.5 z*, past z* too, where D(r) < 0
        # (below 1: past it the branch point z = 1 is inside as well and
        # D(r) is not real; the transform never samples there), 4-4096
        # samples, and a non-finite or zero sample in every eighth case
        rng = np.random.default_rng(20261020)
        seen = {}
        for i in range(600):
            mu, lam = 1.0 - rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
            samples = 2 * int(2 ** rng.uniform(1.0, 11.0))
            if lam > 0:
                z_star = _pole(mu, lam)
                r = rng.uniform(0.5, 1.5) * z_star
                r = r if r < 1.0 else rng.uniform(z_star, 1.0)
            else:
                r = rng.uniform(0.5, 1.0)
            z = r * np.exp(-2j * np.pi / samples * np.arange(samples // 2 + 1))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                denom = 1.0 - lam * z * (1.0 - z) ** -mu
            if i % 8 == 7:
                denom[rng.integers(len(denom))] = (math.nan, math.inf, complex(0.0, -math.inf), 0.0)[i // 8 % 4]
            raised = _raised(_certify, denom)
            assert raised == _raised(_arctan2_certify, denom), (i, mu, lam, r, samples)
            seen[raised] = seen.get(raised, 0) + 1
        assert len(seen) == 3 and min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("turn, winds", [
        (lambda t: 2.0 * np.pi * t, True), (lambda t: -2.0 * np.pi * t, True), (lambda t: 4.0 * np.pi * t, True),
        (lambda t: 1.2 * np.pi * np.sin(np.pi * t), False), (lambda t: 1.2 * np.pi * np.sin(2.0 * np.pi * t), False),
        (lambda t: -1.2 * np.pi * np.sin(np.pi * t), False), (lambda t: 0.9 * np.pi * np.sin(np.pi * t), False),
    ], ids=["once", "once-clockwise", "twice", "out-and-back", "both-ways", "out-and-back-clockwise", "short"])
    @pytest.mark.parametrize("on_axis", [None, 0.0, -0.0])
    def test_certificate_counts_crossings_of_the_negative_axis(self, turn, winds, on_axis):
        # unit-circle paths D = exp(i turn(t)) from D = 1 back to D = 1: the
        # sweep above never reaches Re D <= 0 with D(r) > 0, these do, with
        # the samples nearest -1 optionally exactly on the axis
        denom = np.exp(1j * turn(np.linspace(0.0, 1.0, 4097)))
        denom[[0, -1]] = 1.0
        if on_axis is not None:
            near = np.flatnonzero(np.abs(np.abs(np.angle(denom)) - np.pi) < 2e-3)
            denom[near] = complex(-1.0, on_axis)
        expect = "a zero of D lies inside the contour" if winds else None
        assert _raised(_certify, denom) == _raised(_arctan2_certify, denom) == expect

    @pytest.mark.parametrize("mu, lam", [(0.5, 0.6), (0.15, 0.995), (1.0, 0.2)])
    def test_certificate_rejects_a_contour_around_the_pole(self, mu, lam):
        z_star = _pole(mu, lam)

        def denom(r, samples=1024):
            z = r * np.exp(-2j * np.pi / samples * np.arange(samples // 2 + 1))
            return 1.0 - lam * z * (1.0 - z) ** -mu

        _certify(denom(0.99 * z_star))
        with pytest.raises(ContourError, match="inside the contour"):
            _certify(denom(0.5 * (z_star + 1.0)))
        with pytest.raises(ContourError, match="do not resolve"):
            _certify(denom(0.5 * (z_star + 1.0), samples=4))


def _arctan2_certify(denom):
    """The certificate as first written: each step's turn, the arctan2 of
    conj(D_j) D_(j+1), must stay below pi/2 and their sum within pi/2."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.conjugate(denom[:-1]) * denom[1:]
    turns = np.arctan2(product.imag, product.real)
    if not (np.all(np.isfinite(denom) & (denom != 0)) and np.all(np.abs(turns) < np.pi / 2)):
        raise ContourError("the contour samples do not resolve the winding of D")
    if abs(float(np.sum(turns))) > np.pi / 2:
        raise ContourError("a zero of D lies inside the contour")


def _raised(certify, denom):
    """The ContourError message that certify raises on a copy of denom, or None."""
    try:
        certify(denom.copy())
    except ContourError as error:
        return str(error)
    return None
