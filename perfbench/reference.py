"""50-digit mpmath references, built before the timed loop.

The IVP reference steps the summation equation

    u[n] = zeta c_eta[n] - sum_{j=1}^{n} k_mu[n-j] g_j(u[j-1])

with the gamma-ratio weights formed by exact recurrences at 50 digits, so
it checks the library's falling factorials and its stepping at once.  It
is O(n^2) and is used only up to ``MP_MAX_STEPS``; longer horizons are
checked against the independent library route and the defining
equation.
"""

from __future__ import annotations

import mpmath
import numpy as np

mpmath.mp.dps = 50
mpf = mpmath.mpf

#: longest horizon given a 50-digit trajectory reference (about 0.25 s)
MP_MAX_STEPS = 800
OVERFLOW = mpf("1e300")


def weights(order: float, length: int) -> list:
    """Gamma(l+order) / (Gamma(l+1) Gamma(order)) for l < length, at 50 digits."""
    order = mpf(order)
    w = [mpf(1)]
    for lag in range(1, length):
        w.append(w[-1] * (lag - 1 + order) / lag)
    return w


def trajectory(mu, eta, zeta, lam, steps, forcing=None, g=None):
    """Reference trajectory, its term scale and its overflow index.

    ``g(j, u)`` (j = 1..steps) overrides the affine right-hand side
    -lam*u - forcing[j-1].  Stops at the first value beyond 1e300 and
    reports that index as ``overflow_at``.  ``scale[n]`` is
    |zeta c_eta[n]| + sum_j k_mu[n-j] |g_j|, the size of the terms that
    combine into u[n]; errors are measured against it.
    """
    k = weights(mu, steps + 1)
    c = weights(eta, steps + 1)
    zeta, lam = mpf(zeta), mpf(lam)
    u = [zeta]
    gs: list = []
    overflow_at = None
    for n in range(1, steps + 1):
        if g is not None:
            gj = mpf(g(n, u[n - 1]))
        else:
            gj = -lam * u[n - 1] - (mpf(forcing[n - 1]) if forcing is not None else 0)
        gs.append(gj)
        value = zeta * c[n] - mpmath.fdot(k[n - 1 :: -1], gs)
        if abs(value) > OVERFLOW:
            overflow_at = n
            break
        u.append(value)
    m = len(u)
    kf = np.array([float(x) for x in k[:m]])
    gabs = np.abs(np.array([float(x) for x in gs[: m - 1]]))
    scale = abs(float(zeta)) * np.array([float(x) for x in c[:m]])
    scale[1:] += np.convolve(kf, gabs)[: m - 1]
    return np.array([float(x) for x in u]), scale, overflow_at


def ml_value(mu, eta, gamma, lam, z, bold=False, tol=mpf("1e-40"), max_terms=4000):
    """Discrete Mittag-Leffler series at 50 digits.

    Terminates where the falling factorial's denominator gamma poles
    (solution-lattice arguments), otherwise when terms fall below ``tol``.
    """
    mu, eta, gamma, lam, z = (mpf(x) for x in (mu, eta, gamma, lam, z))
    offset = eta - 1 if bold else mpf(0)
    total = mpf(0)
    scale = mpf(0)
    for k in range(max_terms):
        den = z + offset - eta + 2 - k
        if _is_pole(den):
            return float(total), float(scale)
        t = z + k * (mu - 1) + offset
        r = k * mu + eta - 1
        if _is_pole(k * mu + eta):
            term = mpf(0)
        else:
            ff = mpmath.gammaprod([t + 1], [t - r + 1])
            poch = mpmath.rf(gamma, k) / mpmath.factorial(k)
            term = lam**k * ff * poch / mpmath.gamma(k * mu + eta)
        total += term
        scale += abs(term)
        if k > 3 and abs(term) < tol * max(1, abs(total)):
            return float(total), float(scale)
    raise ArithmeticError("reference series did not converge")


def _is_pole(x) -> bool:
    n = mpmath.nint(x)
    return n <= 0 and abs(x - n) < mpf("1e-9")


def existence_bound(a, T, mu) -> float:
    mu = mpf(mu)
    t = mpf(T) - mpf(a) - 1 + mu
    return float(mpmath.gamma(mu + 1) / mpmath.gammaprod([t + 1], [t - mu + 1]))
