"""Discrete Mittag-Leffler functions of the delta calculus.

Two families are provided: the plain series

    E^gamma_[mu,eta](lam, z) = sum_k lam^k (z + k(mu-1))^[mu k + eta - 1]
                               (gamma)_k / (Gamma(mu k + eta) k!)

and the shifted ("bold") variant whose falling-factorial argument carries
an extra eta - 1.  On the arguments that arise from solutions,
z = n + eta - 1 with n a nonnegative integer, the denominator gamma of
the falling factorial poles for every k > n, so the series is an exact
finite sum; termination is detected from that pole condition *before*
any term is formed, which keeps resonant parameter combinations (where
the polynomial continuation of the falling factorial would re-enter with
a nonzero value) consistent with the successive-approximation solutions.

Term k is a running coefficient lam^k (gamma)_k / k! times the Taylor
monomial h_{mu k + eta - 1} of :func:`hilfer_dfc.grid.taylor_monomial`.

Off the solution lattice the series is truncated once terms stay below
``SeriesCtl.tol``; non-convergence within ``max_terms`` raises.  |lam| < 1
does not make that sound: for mu < 1 the terms grow like
(|lam| / (mu^mu (1-mu)^(1-mu)))^k (Stirling), after they may have fallen
far below tol, so a rate >= 1 raises SeriesConvergenceError up front
unless a nonpositive integer gamma ends the sum.  For mu >= 1 the rate
is at most |lam|.

Solvers need the plain family at every lattice point at once.  The
values E_[mu,eta](lam, n + eta - 1) are the Taylor coefficients of

    U(z) = (1-z)^-eta / D(z),   D(z) = 1 - lam z (1-z)^-mu,

and :func:`ml_lattice` takes them by the trapezoid rule on a circle
|z| = r (Bornemann 2011, Found. Comput. Math. 11): U at M >= 16N points,
one inverse real FFT, scaled by r^-n.  U is real on the real axis, so
the half circle is sampled.  r sits a relative 2/N inside the nearest
singularity, the branch point z = 1 for lam <= 0 and the real pole z* in
(0, 1) of D for lam > 0, which bounds both the aliasing and the r^-n
growth of roundoff.  The samples of D also certify the contour: its
winding number around 0 must be 0, or ContourError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import _pole_index, _snap_int, taylor_monomial
from .operators import _smooth_length

__all__ = [
    "SeriesCtl",
    "SeriesConvergenceError",
    "ContourError",
    "MlParams",
    "MlEvaluation",
    "pochhammer",
    "ml_eval",
    "ml_lattice",
    "ml_lattice_solution",
    "ml_plain",
    "ml_bold",
]

#: consecutive below-tolerance terms required before truncating off-lattice
_CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class SeriesCtl:
    """Truncation policy for infinite series."""

    tol: float = 1e-14
    max_terms: int = 512

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


class SeriesConvergenceError(RuntimeError):
    """Series did not meet the truncation tolerance within max_terms."""


class ContourError(ArithmeticError):
    """The transform contour of :func:`ml_lattice` may enclose a pole."""


@dataclass(frozen=True)
class MlParams:
    """Parameters (mu, eta, gamma, lam) of the discrete Mittag-Leffler series.

    Real parameters only; mu > 0 and |lam| < 1.
    """

    mu: float
    eta: float = 1.0
    gamma: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not abs(self.lam) < 1.0:
            raise ValueError(f"|lam| must be < 1, got {self.lam}")


@dataclass(frozen=True)
class MlEvaluation:
    """Value plus diagnostics of one series evaluation.

    ``terms`` holds the computed terms in order; ``exact`` is True when the
    series terminated through the falling-factorial pole (finite sum, no
    truncation error), False when it was cut by the tolerance rule.
    """

    value: float
    terms: tuple[float, ...]
    exact: bool

    @property
    def terms_used(self) -> int:
        return len(self.terms)


def pochhammer(gamma: float, k: int) -> float:
    """Rising factorial (gamma)_k = gamma (gamma+1) ... (gamma+k-1); ()_0 = 1."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    out = 1.0
    for i in range(k):
        out *= gamma + i
    return out


def _series(
    mu: float,
    eta: float,
    gamma: float,
    lam: float,
    z: float,
    arg_offset: float,
    ctl: SeriesCtl,
) -> MlEvaluation:
    # off the lattice a mu < 1 series grows like (|lam| / (mu^mu (1-mu)^(1-mu)))^k
    # unless a zero Pochhammer factor ends it (module docstring)
    if (
        _snap_int(z + arg_offset - eta + 2.0) is None
        and mu < 1.0
        and abs(lam) >= mu**mu * (1.0 - mu) ** (1.0 - mu)
        and not (gamma <= 0.0 and float(gamma).is_integer())
    ):
        raise SeriesConvergenceError(f"series diverges off the lattice at mu = {mu}, lam = {lam}")
    coeff = 1.0  # running lam^k (gamma)_k / k!
    total = 0.0
    terms: list[float] = []
    small_in_a_row = 0

    for k in range(ctl.max_terms):
        # Denominator gamma argument of the falling factorial; it decreases
        # by exactly 1 per term, so the first pole terminates the series.
        if _pole_index(z + arg_offset - eta + 2.0 - k) is not None:
            return MlEvaluation(total, tuple(terms), True)

        if k > 0:
            factor = gamma + (k - 1)
            if factor == 0.0 or lam == 0.0:
                # Pochhammer or lam^k hit zero: every later term vanishes too.
                return MlEvaluation(total, tuple(terms), True)
            coeff *= lam * factor / k

        term = coeff * taylor_monomial(k * mu + eta - 1.0, z + k * (mu - 1.0) + arg_offset, 0.0)
        terms.append(term)
        total += term

        if abs(term) < ctl.tol:
            small_in_a_row += 1
            if small_in_a_row >= _CONSECUTIVE_SMALL:
                return MlEvaluation(total, tuple(terms), False)
        else:
            small_in_a_row = 0

    raise SeriesConvergenceError(
        f"series did not converge within {ctl.max_terms} terms"
    )


def ml_eval(
    p: MlParams, z: float, ctl: SeriesCtl = SeriesCtl(), *, bold: bool = False
) -> MlEvaluation:
    """Evaluate either series family with full diagnostics."""
    offset = (p.eta - 1.0) if bold else 0.0
    return _series(p.mu, p.eta, p.gamma, p.lam, z, offset, ctl)


def ml_plain(p: MlParams, z: float, ctl: SeriesCtl = SeriesCtl()) -> float:
    """Plain discrete Mittag-Leffler value at z."""
    return ml_eval(p, z, ctl).value


def ml_bold(p: MlParams, z: float, ctl: SeriesCtl = SeriesCtl()) -> float:
    """Shifted-argument variant; equals ml_plain at z + eta - 1."""
    return ml_eval(p, z, ctl, bold=True).value


def ml_lattice(p: MlParams, count: int) -> np.ndarray:
    """Plain-family values E_[mu,eta](lam, n + eta - 1) for n = 0..count-1.

    Only gamma = 1 is supported.  Values past the float range come out
    as inf; callers decide what that means.  Raises ContourError when the
    transform's contour is not certified.

    For eta > 1, U grows like N^eta at z = 1 and the transform's roundoff
    with it, so U = W / (1-z) is taken instead: the running sum of the
    eta - 1 values, each accurate to its own size.
    """
    if p.eta > 1.0:
        with np.errstate(over="ignore"):
            return np.cumsum(ml_lattice(replace(p, eta=p.eta - 1.0), count))
    return ml_lattice_solution(p, count)[0]


def _pole(mu: float, lam: float) -> float:
    """Lower bisection bound of the zero z* in (0, 1) of (1-z)^mu - lam z, lam > 0."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (1.0 - mid) ** mu > lam * mid else (lo, mid)
    return lo


def _certify(denom: np.ndarray) -> None:
    """Raise ContourError unless D, sampled from z = r to z = -r, has no
    zero inside the circle.

    D(conj z) = conj D(z), so the whole circle's winding number is the
    half circle's turn over pi.  A step turning by pi/2 or more between
    samples would make the count ambiguous.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = np.angle(denom[1:] / denom[:-1])
    if not (np.all(np.isfinite(denom) & (denom != 0)) and np.all(np.abs(turns) < np.pi / 2)):
        raise ContourError("the contour samples do not resolve the winding of D")
    if abs(float(np.sum(turns))) > np.pi / 2:
        raise ContourError("a zero of D lies inside the contour")


def ml_lattice_solution(
    p: MlParams, count: int, zeta: float = 1.0, forcing: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Lattice solution zeta E_[mu,eta](lam, n + eta - 1)
    + sum_{j<n} E_[mu,mu](lam, n - j + mu - 2) forcing[j] for n < count,
    and the number of symbol samples taken.

    These are the coefficients of zeta U(z) + z K(z) F(z), with K the
    eta = mu symbol and F(z) = sum_j forcing[j] z^j, all from one
    transform (module docstring).  Raises ContourError when the contour
    is not certified.
    """
    if p.gamma != 1.0:
        raise ValueError(f"ml_lattice supports gamma = 1 only, got {p.gamma}")
    n = max(count, 16)
    r = (1.0 - 2.0 / n) * (_pole(p.mu, p.lam) if p.lam > 0 else 1.0)
    m = 2 * _smooth_length(8 * n)
    z = r * np.exp(-2j * np.pi / m * np.arange(m // 2 + 1))
    log_1mz = np.log1p(-z)
    k_mu = np.exp(-p.mu * log_1mz)
    denom = 1.0 - p.lam * z * k_mu
    _certify(denom)
    samples = zeta * np.exp(-p.eta * log_1mz)
    if forcing is not None:
        f = np.asarray(forcing, dtype=float)[:count]
        samples += z * k_mu * np.fft.rfft(f * r ** np.arange(len(f)), m)
    # r^-n as two factors: the product overflows only where the value does
    half = np.power(r, -0.5 * np.arange(count))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.fft.irfft(samples / denom, m)[:count] * half * half
    out[:1] = zeta  # zeta U(0), exactly
    return out, len(z)
