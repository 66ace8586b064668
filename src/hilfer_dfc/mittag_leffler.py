"""Discrete Mittag-Leffler functions of the delta calculus.

Two families are provided: the plain series

    E^gamma_[mu,eta](lam, z) = sum_k lam^k (z + k(mu-1))^[mu k + eta - 1]
                               (gamma)_k / (Gamma(mu k + eta) k!)

and the shifted ("bold") variant whose falling-factorial argument carries
an extra eta - 1.

On the solution lattice, an integer n = z - eta + 1 (plain) or n = z
(bold), the series is a finite sum of n + 1 terms, 0 for n < 0, and for
lam < 0 they cancel without bound.  Its values are read instead as the
Taylor coefficients of

    U(z) = (1-z)^-eta D(z)^-gamma,   D(z) = 1 - lam z (1-z)^-mu:

:func:`ml_lattice` takes them by the trapezoid rule on a circle |z| = r
(Bornemann 2011, Found. Comput. Math. 11): U at M >= 16N points, one
inverse real FFT, scaled by r^-n.  U is real on the real axis, so the
half circle is sampled, in real arithmetic from one table
s = sin(pi j / M) and its reverse c = cos(pi j / M): 1 - z is
(1 - r) + 2 r s^2 + i 2 r s c, with no cancellation near z = 1,
log|1 - z| is one real log, arg(1 - z) one arctan2, and a power
(1 - z)^-e is exp(-e log|1 - z|) (cos(e arg) - i sin(e arg)).  Each
sin and cos comes from one tan of the half angle, tau, which costs a
third of numpy's cos and sin: the sin is 2 tau / (1 + tau^2) and the
cos (1 - tau^2) / (1 + tau^2), taken as 1 - tau sin to keep its digits
near 1.  The table's first quarter is such a sin and the rest its cos
read backwards, one tan for two samples.  r sits a relative
2/N inside the nearest singularity (more past order 1), which bounds
both the aliasing and the r^-n growth of roundoff: the branch point
z = 1, or for lam > 0 the real zero z* in (0, 1) of D, unless a
nonpositive integer gamma makes D^-gamma a polynomial in D, taken as
D to the integer power -gamma with no branch of arg D to follow.  The
samples of D certify a contour inside z* by signs, or ContourError is
raised: consecutive samples have a positive dot product (turn by less
than pi/2), D(r) and D(-r) are positive and the path crosses the
negative real axis as often each way, so D winds 0 times around 0.  For
any other gamma != 1 the running sum of the steps' turns, the arctan2 of
the cross and dot products, is the continuous arg D that D^(1-gamma)
needs.
Every half-circle array is a row of one thread's scratch, this module's
own :class:`hilfer_dfc.grid._Workspace`, reused from call to call; exp,
tan, cos and sin run on its contiguous real rows, and the values
returned are fresh arrays.

Off the lattice the series is summed: term k is a running coefficient
lam^k (gamma)_k / k! times the Taylor monomial h_{mu k + eta - 1} of
:func:`hilfer_dfc.grid.taylor_monomial`, truncated once terms stay below
``SeriesCtl.tol``; non-convergence within ``_MAX_TERMS`` raises, and so
does a dropped term below that whose numerator gamma poles.  |lam| < 1
does not make that sound: for mu < 1 the terms grow like
rate^k, rate = |lam| / (mu^mu (1-mu)^(1-mu)) (Stirling), after they may
have fallen far below tol, so a rate >= 1 raises SeriesConvergenceError
up front unless a nonpositive integer gamma ends the sum.  For mu >= 1
the rate is at most |lam|.  Below 1 the terms still rise again each time
the numerator gamma's argument passes a pole, so "stay below" is read
from the dropped terms' sizes up to ``_MAX_TERMS``: they must sum below
tol-sized terms falling at the rate, at most tol / (1 - rate).  A sum
whose roundoff eps sum|t| exceeds tol |sum t| has cancelled past the
tolerance and raises SeriesConvergenceError too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import INTEGER_SNAP, LibraryError, _smooth_length, _snap_int, taylor_monomial
from .grid import _require_finite, _require_positive, _Workspace

__all__ = [
    "SeriesCtl",
    "SeriesConvergenceError",
    "ContourError",
    "MlParams",
    "MlEvaluation",
    "ml_eval",
    "ml_lattice",
    "ml_lattice_solution",
    "ml_plain",
]

#: consecutive below-tolerance terms required before truncating off-lattice
_CONSECUTIVE_SMALL = 3
#: most terms an off-lattice series sums
_MAX_TERMS = 512
#: largest lattice index ml_eval reads, and largest transform a high
#: order of U asks for: the transform holds about 16 complex samples per point
_LATTICE_MAX = 2**17
#: the transform's scratch rows (_scratch), one set per thread, kept between calls
_workspace = _Workspace()


@dataclass(frozen=True)
class SeriesCtl:
    """Truncation policy for infinite series."""

    tol: float = 1e-14

    def __post_init__(self) -> None:
        _require_positive(tol=self.tol)


class SeriesConvergenceError(LibraryError, RuntimeError):
    """Series did not meet the truncation tolerance within _MAX_TERMS terms."""


class ContourError(LibraryError, ArithmeticError):
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
        _require_finite(mu=self.mu, eta=self.eta, gamma=self.gamma)
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not abs(self.lam) < 1.0:
            raise ValueError(f"|lam| must be < 1, got {self.lam}")


@dataclass(frozen=True)
class MlEvaluation:
    """Value plus diagnostics of one evaluation.

    ``exact`` is True for a finite sum (a lattice point, or a series ended
    by a zero factor), False for a series cut by the tolerance rule, and
    ``terms_used`` counts the terms of that sum.  ``condition`` is the
    series' sum |t| / |sum t|; None on the lattice, where the transform
    forms no terms.
    """

    value: float
    terms_used: int
    exact: bool
    condition: float | None = None


def _conditioned(total: float, size: float, terms: int, exact: bool, ctl: SeriesCtl) -> MlEvaluation:
    # the roundoff eps sum|t| must stay within tol |sum t|
    if np.finfo(float).eps * size > ctl.tol * abs(total):
        raise SeriesConvergenceError(f"series cancels: terms of size {size:.3g} sum to {total:.3g}")
    return MlEvaluation(total, terms, exact, size / abs(total) if size else 1.0)


def _dropped_sizes(p: MlParams, x: np.ndarray, j: np.ndarray, coeff: float) -> np.ndarray:
    """|term j| from log-gammas, given x = its numerator gamma argument
    (kept off the poles by the caller) and coeff, the running coefficient
    of term j[0] - 1; sizes above 1 read 1."""
    def lgamma(v: np.ndarray) -> np.ndarray:
        return np.fromiter(map(math.lgamma, v.tolist()), float, len(v))

    r1 = j * p.mu + p.eta  # 1/Gamma(r1) vanishes on its poles
    live = ~((r1 <= 0.0) & (r1 == np.rint(r1)))
    log_coeff = np.cumsum(np.log(np.abs(p.lam * (p.gamma + j - 1) / j)))
    log_coeff += math.log(abs(coeff)) if coeff else -math.inf
    log_size = log_coeff + lgamma(x) - lgamma(x - r1 + 1.0) - lgamma(np.where(live, r1, 1.0))
    return np.where(live, np.exp(np.minimum(log_size, 0.0)), 0.0)


def _series(p: MlParams, z: float, arg_offset: float, ctl: SeriesCtl) -> MlEvaluation:
    mu, eta, gamma, lam = p.mu, p.eta, p.gamma, p.lam
    # a zero Pochhammer factor ends the sum: the terms past -gamma vanish
    ends = gamma <= 0.0 and float(gamma).is_integer()
    stop = min(int(1.0 - gamma), _MAX_TERMS) if ends else _MAX_TERMS
    # a mu < 1 series grows like rate^k, rate = |lam| / (mu^mu (1-mu)^(1-mu)),
    # unless the sum ends (module docstring)
    cap = mu**mu * (1.0 - mu) ** (1.0 - mu) if mu < 1.0 else 1.0
    if mu < 1.0 and abs(lam) >= cap and not ends:
        raise SeriesConvergenceError(f"series diverges off the lattice at mu = {mu}, lam = {lam}")
    rate = min(abs(lam) / cap, 1.0)

    def monomial(k: int) -> float:
        return taylor_monomial(k * mu + eta - 1.0, z + k * (mu - 1.0) + arg_offset, 0.0)

    coeff = 1.0  # running lam^k (gamma)_k / k!
    total = size = 0.0
    small_in_a_row = 0
    first = tails = None  # suffix sums of the term sizes past the first cut

    for k in range(_MAX_TERMS):
        if k > 0:
            factor = gamma + (k - 1)
            if factor == 0.0 or lam == 0.0:
                # Pochhammer or lam^k hit zero: every later term vanishes too.
                return _conditioned(total, size, k, True, ctl)
            coeff *= lam * factor / k

        term = coeff * monomial(k)
        total += term
        size += abs(term)

        if abs(term) < ctl.tol:
            small_in_a_row += 1
            if small_in_a_row >= _CONSECUTIVE_SMALL:
                # the dropped terms must sum below tol-sized terms falling at
                # the rate: past the numerator gamma's poles a term can rise
                # far above tol again, and one on a pole raises
                if tails is None:
                    first = k + 1
                    dropped = np.arange(first, stop)
                    x = z + dropped * (mu - 1.0) + arg_offset + 1.0
                    near = np.rint(x)
                    for j in dropped[(near <= 0.0) & (np.abs(x - near) <= INTEGER_SNAP)]:
                        monomial(int(j))  # taylor_monomial's own pole rule raises
                    tails = np.cumsum(_dropped_sizes(p, x, dropped, coeff)[::-1])[::-1]
                tail = float(tails[k + 1 - first]) if k + 1 < stop else 0.0
                if tail <= ctl.tol * float(np.sum(rate ** np.arange(stop - k - 1))):
                    return _conditioned(total, size, k + 1, False, ctl)
        else:
            small_in_a_row = 0

    raise SeriesConvergenceError(f"series did not converge within {_MAX_TERMS} terms")


def ml_eval(
    p: MlParams, z: float, ctl: SeriesCtl = SeriesCtl(), *, bold: bool = False
) -> MlEvaluation:
    """Evaluate either family with full diagnostics.

    At a lattice point, an integer n = z + offset - eta + 1 (offset
    eta - 1 for ``bold``, else 0), the value is entry n of
    :func:`ml_lattice`, and 0 for n < 0; OverflowError is raised past
    index ``_LATTICE_MAX`` or the float range.  Elsewhere the series is
    summed to ``ctl``.
    """
    _require_finite(z=z)
    offset = (p.eta - 1.0) if bold else 0.0
    n = _snap_int(z + offset - p.eta + 1.0)
    if n is None:
        return _series(p, z, offset, ctl)
    if n < 0:
        return MlEvaluation(0.0, 0, True)
    if n > _LATTICE_MAX:
        raise OverflowError(f"lattice index {n} is past the transform's limit {_LATTICE_MAX}")
    value = float(ml_lattice(p, n + 1)[n])
    if not math.isfinite(value):
        raise OverflowError(f"the value at lattice index {n} is past the float range")
    return MlEvaluation(value, n + 1, True)


def ml_plain(p: MlParams, z: float, ctl: SeriesCtl = SeriesCtl()) -> float:
    """Plain discrete Mittag-Leffler value at z."""
    return ml_eval(p, z, ctl).value


def ml_lattice(p: MlParams, count: int) -> np.ndarray:
    """Plain-family values E^gamma_[mu,eta](lam, n + eta - 1) for n = 0..count-1.

    Values past the float range come out as inf; callers decide what
    that means.  Raises ContourError when the transform's contour is not
    certified.

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


def _certify(denom: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Raise ContourError unless D, sampled from z = r to z = -r, has no
    zero inside the circle; return ``rows`` (4 x len(denom), fresh if not
    given): Re D, Im D, the steps' Re(conj(D_j) D_(j+1)) and scratch.

    D(conj z) = conj D(z), so the whole circle's winding number is the
    half circle's turn over pi.  A step must turn by less than pi/2 for
    the count to be unambiguous, and then crosses the negative real axis
    only if both its samples have Re D < 0.  From D(r) > 0 to D(-r) > 0
    the turn is 2 pi times the signed count of such crossings."""
    rows = np.empty((4, len(denom))) if rows is None else rows
    re, im, dot = rows[0], rows[1], rows[2, :-1]
    re[:], im[:] = denom.real, denom.imag
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(re[:-1], re[1:], out=dot)
        dot += np.multiply(im[:-1], im[1:], out=rows[3, :-1])
    if not (np.all(np.isfinite(rows[:2])) and dot.min() > 0.0):
        raise ContourError("the contour samples do not resolve the winding of D")
    if re.min() <= 0.0:
        # a counterclockwise crossing takes Im D from >= 0 to < 0
        left, up = re[:-1] < 0.0, im >= 0.0
        if not (re[0] > 0.0 and re[-1] > 0.0) or np.count_nonzero(up[:-1][left]) != np.count_nonzero(up[1:][left]):
            raise ContourError("a zero of D lies inside the contour")
    return rows


def _scratch(m: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's eleven real rows of m/2 + 1 samples, and the first
    eight as four complex rows: complex row i is real rows 2i and 2i + 1."""
    rows = _workspace.take("contour", (11, m // 2 + 1))
    return rows, rows[:8].reshape(4, -1).view(complex)


def _contour(r: float, m: int, mu: float, eta: float) -> tuple[np.ndarray, ...]:
    """The half circle z = r exp(-2 pi i j / m), j = 0..m/2, and there
    log|1 - z|, arg(1 - z), (1 - z)^-mu and (1 - z)^-eta, in real
    arithmetic (module docstring): z = r - 2 r s^2 - i 2 r s c, and
    |1 - z|^2 = (1 - r)^2 + 4 r s^2 has no cancelling term either.

    All five are views of :func:`_scratch`: z complex row 0, the log and
    the arg real rows 6 and 7, the powers complex rows 1 and 2.
    """
    rows, cplx = _scratch(m)
    # s = sin(pi j / m) = 2t / (1 + t^2), t = tan(pi j / 2m), up to j = m/4,
    # and from there on the first quarter's cos 1 - t s, read backwards
    q = m // 4 + 1
    t, s = rows[8, :q], rows[5]
    np.tan(np.multiply(np.arange(q, dtype=float), np.pi / (2 * m), out=t), out=t)
    d = np.add(np.square(t, out=rows[4, :q]), 1.0, out=rows[4, :q])
    np.divide(np.multiply(t, 2.0, out=s[:q]), d, out=s[:q])
    np.subtract(1.0, np.multiply(t, s[:q], out=d), out=s[::-1][:q])
    rs = np.multiply(s, 2.0 * r, out=rows[8])
    im = np.multiply(rs, s[::-1], out=rows[4])  # Im(1 - z) = -Im z
    rss = np.multiply(rs, s, out=rs)
    z = cplx[0]
    np.subtract(r, rss, out=z.real)
    np.negative(im, out=z.imag)
    log_mod = np.multiply(rss, 2.0, out=rows[6])
    log_mod += (1.0 - r) ** 2
    np.log(log_mod, out=log_mod)
    log_mod *= 0.5
    arg = np.arctan2(im, np.add(rss, 1.0 - r, out=rss), out=rows[7])

    def power(e: float, out: np.ndarray) -> np.ndarray:
        # mod (cos - i sin) of e arg from tau = tan(e arg / 2): sin is
        # 2 tau / (1 + tau^2), and cos = (1 - tau^2) / (1 + tau^2) is taken
        # as 1 - tau sin, which keeps its digits where it is near 1; only the
        # products reach out's strided halves, where numpy runs several times slower
        tau = np.tan(np.multiply(arg, 0.5 * e, out=rows[8]), out=rows[8])
        d = np.add(np.square(tau, out=rows[9]), 1.0, out=rows[9])
        sin = np.divide(np.multiply(tau, 2.0, out=rows[10]), d, out=rows[10])
        cos = np.subtract(1.0, np.multiply(tau, sin, out=tau), out=tau)
        mod = np.exp(np.multiply(log_mod, -e, out=rows[9]), out=rows[9])
        np.negative(np.multiply(sin, mod, out=sin), out=out.imag)
        np.multiply(mod, cos, out=out.real)
        return out

    k_mu = power(mu, cplx[1])
    return z, log_mod, arg, k_mu, k_mu if eta == mu else power(eta, cplx[2])


def ml_lattice_solution(
    p: MlParams, count: int, zeta: float = 1.0, forcing: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Lattice solution zeta E^gamma_[mu,eta](lam, n + eta - 1)
    + sum_{j<n} E_[mu,mu](lam, n - j + mu - 2) forcing[j] for n < count,
    and the number of symbol samples taken.

    These are the coefficients of zeta U(z) + z K(z) F(z), with K the
    eta = mu, gamma = 1 symbol and F(z) = sum_j forcing[j] z^j, all from
    one transform (module docstring); a forcing needs gamma = 1.  Raises
    ContourError when the contour is not certified, ValueError for a
    count that is not a nonnegative integer or a non-finite zeta or
    forcing sample.
    """
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be a nonnegative integer: got {count}")
    count = int(count)
    _require_finite(zeta=zeta)
    if forcing is not None:
        if p.gamma != 1.0:
            raise ValueError(f"a forced solution needs gamma = 1, got {p.gamma}")
        f = np.asarray(forcing, dtype=float)[:count]
        bad = np.flatnonzero(~np.isfinite(f))
        if bad.size:
            raise ValueError(f"forcing must be finite: sample {bad[0]} is {float(f[bad[0]])!r}")
    polynomial = p.gamma <= 0.0 and float(p.gamma).is_integer()
    pole = p.lam > 0 and not polynomial
    # U's coefficients grow like n^(order-1) from its nearest singularity,
    # and their aliases m points on like m^(order-1): past order 1 the
    # contour moves further in, to keep them at their order-1 ratio e^-32
    order = p.gamma if pole else p.eta - p.gamma * p.mu if p.lam else p.eta
    n = max(count, 16, 4 * math.ceil(order))  # keeps the shift below n/2
    if n > max(count, _LATTICE_MAX):
        raise OverflowError(f"gamma = {p.gamma} needs a transform of {n} points")
    m = 2 * _smooth_length(8 * n)
    shift = 2.0 + max(order - 1.0, 0.0) * math.log(m) / 16.0
    r = (1.0 - shift / n) * (_pole(p.mu, p.lam) if pole else 1.0)
    z, _, _, k_mu, u_eta = _contour(r, m, p.mu, p.eta)
    # every half-circle array below is a row of the scratch (_contour)
    rows, cplx = _scratch(m)
    denom = np.multiply(z, p.lam, out=cplx[3])  # 1 - lam z k_mu
    denom *= k_mu
    np.subtract(1.0, denom, out=denom)
    # a zeta near the float limit reads inf here: the trajectory overflows at index 0
    with np.errstate(over="ignore"):
        samples = np.multiply(u_eta, zeta, out=cplx[2])
    if forcing is not None:
        zk = np.multiply(z, k_mu, out=cplx[1])
        samples += np.multiply(zk, np.fft.rfft(f * r ** np.arange(len(f)), m, out=cplx[0]), out=zk)
    if not polynomial:  # leaves Re D, Im D and the steps' dot products in the real rows 0-2
        _certify(denom, rows[:4])
    with np.errstate(over="ignore", invalid="ignore"):
        if polynomial:  # D^-gamma is D to the integer power -gamma: no branch to follow
            symbol = np.multiply(samples, np.power(denom, -p.gamma, out=denom), out=samples)
        else:
            symbol = np.divide(samples, denom, out=samples)
        if p.gamma != 1.0 and not polynomial:
            # D^(1-gamma) on the branch that follows arg D from z = r, on
            # real rows: exp((1-gamma) log|D|) (cos + i sin)((1-gamma) arg D);
            # the turns from the cross products and the certificate's dot products
            g, turns, arg, mod = 1.0 - p.gamma, rows[3, :-1], rows[8], rows[9]
            cross = np.multiply(rows[0, :-1], rows[1, 1:], out=turns)
            cross -= np.multiply(rows[1, :-1], rows[0, 1:], out=arg[1:])
            np.arctan2(cross, rows[2, :-1], out=turns)
            arg[0] = np.angle(denom[0])
            np.add(np.cumsum(turns, out=arg[1:]), arg[0], out=arg[1:])
            np.exp(np.multiply(np.log(np.abs(denom, out=mod), out=mod), g, out=mod), out=mod)
            np.multiply(arg, g, out=arg)
            factor = cplx[3]  # D's row, read for the last time above
            np.multiply(mod, np.cos(arg, out=rows[10]), out=factor.real)
            np.multiply(mod, np.sin(arg, out=arg), out=factor.imag)
            symbol *= factor
        # r^-n as two factors: the product overflows only where the value does
        half = np.power(r, -0.5 * np.arange(count))
        out = np.fft.irfft(symbol, m, out=rows[:2].reshape(-1)[:m])[:count] * half * half
    out[:1] = zeta  # zeta U(0), exactly
    return out, len(z)
