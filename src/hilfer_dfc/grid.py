"""Shifted integer grids and gamma-ratio special functions.

Every function in this library lives on an isolated time scale
``{base, base+1, base+2, ...}``: a real base point with unit step.  Grid
points are carried as (real base, integer index) so that shifted grids
(base + mu, base + 1 - eta, ...) never accumulate floating-point drift
in the step.

A gamma ratio is Stirling's series where its arguments are large, else
a quotient of ``math.gamma`` values where those are normal floats, else
``math.lgamma`` (log|Gamma(x)|) with the sign +1 for x > 0, else
(-1)^floor(x).  Callers reject the poles (nonpositive integers, to
within INTEGER_SNAP) first, so neither ever sees one.

All operations are pure functions of immutable inputs and are safe to
share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "GridFn",
    "HilferOrder",
    "falling_factorial",
    "falling_factorial_sign_logmag",
    "taylor_monomial",
    "delta_sum",
    "jump_forward",
    "jump_backward",
    "OffGridError",
    "CoverageError",
    "SingularGammaError",
]

#: Absolute snap distance used to decide whether a real is "on" an integer
#: lattice: grid membership and gamma-pole detection both use it.  Grid
#: arithmetic keeps offsets exact to ~1e-13, so 1e-9 has wide margin.
INTEGER_SNAP = 1e-9

#: from this argument on, gamma ratios use Stirling's series, not lgamma
_STIRLING_MIN = 16.0
#: smallest normal float: a gamma quotient below it has lost digits
_TINY = sys.float_info.min
#: B_2k / (2k (2k-1)), k = 1..6; the next term is below 2e-18 at x = 16
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


class OffGridError(ValueError):
    """A point does not lie on the grid it was evaluated against."""


class CoverageError(ValueError):
    """A function does not cover all indices an operator needs to reach."""


class SingularGammaError(ArithmeticError):
    """A gamma ratio is evaluated where its value is genuinely infinite."""


def _pole_index(x: float) -> int | None:
    """Order index of the gamma pole at ``x`` (0 for x=0, 1 for x=-1, ...).

    Returns None when ``x`` is not within INTEGER_SNAP of a nonpositive
    integer.
    """
    n = round(x)
    if n <= 0 and abs(x - n) <= INTEGER_SNAP:
        return -n
    return None


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is not a finite real."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: got {value!r}")


def _snap_int(x: float) -> int | None:
    """Nearest integer when ``x`` is within INTEGER_SNAP of it, else None."""
    n = round(x)
    if abs(x - n) <= INTEGER_SNAP:
        return n
    return None


def _sign_lgamma(x: float) -> tuple[float, float]:
    """(sign of Gamma(x), log|Gamma(x)|) for x off the poles."""
    sign = 1.0 if x > 0.0 or math.floor(x) % 2 == 0 else -1.0
    return sign, math.lgamma(x)


def _gamma_ratio(num: float, *dens: float) -> float | None:
    """Gamma(num) divided by Gamma(den) for each den, from math.gamma.

    None unless every argument lies in (-170, 171) and every quotient is
    a normal float.  Callers keep the poles out; there math.gamma is a
    normal float that holds a few ulps, where exp of an lgamma difference
    is 1e-15 off near the zeros of lgamma at 1 and 2.
    """
    if not (-170.0 < min(num, *dens) and max(num, *dens) < 171.0):
        return None
    value = math.gamma(num)
    for den in dens:
        value /= math.gamma(den)
        if not _TINY <= abs(value) < math.inf:
            return None
    return value


def _ratio_correction(x: float, r: float) -> float:
    """log Gamma(x) - log Gamma(x - r) - r log x, for x, x - r >= _STIRLING_MIN.

    Stirling's series for both gammas less the r log x they share: the
    rest is O(r^2 / x) with absolute error about eps |r|, where the
    lgamma difference loses eps |lgamma(x)|.
    """
    tails = [sum(c * y ** -(2 * k + 1) for k, c in enumerate(_STIRLING)) for y in (x, x - r)]
    return -(x - r - 0.5) * math.log1p(-r / x) - r + tails[0] - tails[1]


def _large_ratio(t: float, r: float, scale: float = 1.0) -> float:
    """scale Gamma(t+1) / Gamma(t-r+1), both arguments >= _STIRLING_MIN;
    inf past the float range.

    pow keeps the value to an ulp where exp of the log form loses
    eps |r log t|.  Halved, or cut into more power-of-two parts where a
    half would leave the float range, no intermediate overflows or
    underflows unless the value does.
    """
    log_power = r * math.log(t + 1.0)
    correction = _ratio_correction(t + 1.0, r)
    if abs(log_power) < 1400.0 and abs(correction) < 700.0:
        half = math.pow(t + 1.0, 0.5 * r)
        return half * scale * math.exp(correction) * half
    log_rest = correction + math.log(abs(scale))
    parts = 2 ** math.ceil(math.log2(max(abs(log_power), abs(log_rest)) / 350.0))
    try:
        part = math.pow(t + 1.0, r / parts) * math.exp(log_rest / parts)
        return math.copysign(part**parts, scale)
    except OverflowError:
        return math.copysign(math.inf, scale)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Grid:
    """Isolated time scale {base, base+1, ..., base+count-1}.

    count = 0 denotes the empty grid (empty sum convention applies to any
    range drawn from it).
    """

    base: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")

    @property
    def points(self) -> np.ndarray:
        return self.base + np.arange(self.count, dtype=float)

    def point(self, index: int) -> float:
        if not 0 <= index < self.count:
            raise OffGridError(
                f"index {index} outside grid of {self.count} points"
            )
        return self.base + index

    def index_of(self, x: float) -> int:
        """Integer offset of ``x`` from the base; error off the lattice."""
        k = round(x - self.base)
        if abs((x - self.base) - k) > INTEGER_SNAP:
            raise OffGridError(
                f"{x!r} is not on the unit-step grid based at {self.base!r}"
            )
        if not 0 <= k < self.count:
            raise OffGridError(
                f"{x!r} (offset {k}) outside grid [{self.base!r}, "
                f"{self.base + self.count - 1!r}]"
            )
        return int(k)

    def __contains__(self, x: object) -> bool:
        try:
            self.index_of(float(x))  # type: ignore[arg-type]
        except (OffGridError, TypeError, ValueError):
            return False
        return True


def _read_only(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """vals, checked to hold one value per point of grid, made read-only."""
    if vals.ndim != 1 or vals.shape[0] != grid.count:
        raise ValueError(f"expected {grid.count} values, got shape {vals.shape}")
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True, eq=False)
class GridFn:
    """Real-valued samples on a Grid, one value per point.

    Evaluation at a point off the grid raises OffGridError; there is no
    silent extrapolation.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(self.grid, np.array(self.values, dtype=float)))

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "GridFn":
        """A GridFn that takes over a fresh array nothing else holds: the
        array is marked read-only in place instead of copied."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "grid", grid)
        object.__setattr__(fn, "values", _read_only(grid, np.asarray(values, dtype=float)))
        return fn

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFn":
        return cls._adopt(grid, np.array([fn(grid.base + k) for k in range(grid.count)]))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridFn":
        return cls._adopt(grid, np.full(grid.count, float(c)))

    @property
    def base(self) -> float:
        return self.grid.base

    @property
    def count(self) -> int:
        return self.grid.count

    def __call__(self, x: float) -> float:
        return float(self.values[self.grid.index_of(x)])


@dataclass(frozen=True)
class HilferOrder:
    """Order/type pair (mu, nu) of the two-parameter fractional difference.

    mu in (0, 1) is the order, nu in [0, 1] the type; nu=0 selects the
    Riemann-Liouville difference, nu=1 the Caputo difference.  The derived
    composite order eta = mu + nu - mu*nu governs the initial-condition
    monomial and is computed once at construction.
    """

    mu: float
    nu: float
    eta: float = field(init=False)  # derived, set in __post_init__

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")
        object.__setattr__(self, "eta", self.mu + self.nu - self.mu * self.nu)

    @property
    def inner_sum_order(self) -> float:
        """Order (1-nu)(1-mu) of the first fractional sum in the composition."""
        return (1.0 - self.nu) * (1.0 - self.mu)

    @property
    def outer_sum_order(self) -> float:
        """Order nu(1-mu) of the last fractional sum in the composition."""
        return self.nu * (1.0 - self.mu)


# ---------------------------------------------------------------------------
# gamma-ratio special functions


def falling_factorial(t: float, r: float) -> float:
    """Generalized falling function Gamma(t+1)/Gamma(t-r+1).

    Conventions at gamma poles:

    * integer r >= 0: evaluated as the exact product t(t-1)...(t-r+1),
      which equals the limit of the gamma ratio everywhere (including
      negative integer t, where numerator and denominator pole together);
      a product past the float range raises OverflowError, as the
      non-integer orders do;
    * integer r < 0: the reciprocal product 1/((t+1)...(t-r)); a zero
      factor means the value is genuinely singular;
    * non-integer r with a denominator pole only: returns exactly 0.0
      (this zero is what makes the discrete Mittag-Leffler series and the
      solution series terminate);
    * non-integer r with a numerator pole: raises SingularGammaError.
      That includes both arguments within INTEGER_SNAP of a pole, which
      a non-integer r allows only for |r - round(r)| <= 2 INTEGER_SNAP;
      the ratio there hangs on digits below the snap.
    """
    ri = _snap_int(r)
    if ri is not None:
        if ri >= 0:
            out = 1.0
            for i in range(ri):
                out *= t - i
            if not math.isfinite(out):
                if 0.0 <= t < ri and t == math.floor(t):
                    return 0.0  # a zero factor met the overflowed product
                raise OverflowError(f"falling_factorial({t!r}, {r!r}) is past the float range")
            return out
        out = 1.0
        for i in range(1, -ri + 1):
            factor = t + i
            if abs(factor) <= INTEGER_SNAP:
                raise SingularGammaError(
                    f"falling_factorial({t!r}, {r!r}) is singular"
                )
            out *= factor
        return 1.0 / out

    if min(t + 1.0, t - r + 1.0) >= _STIRLING_MIN:
        value = _large_ratio(t, r)
        if math.isinf(value):
            raise OverflowError(f"falling_factorial({t!r}, {r!r}) is past the float range")
        return value
    if _pole_index(t + 1.0) is None and _pole_index(t - r + 1.0) is None:
        value = _gamma_ratio(t + 1.0, t - r + 1.0)
        if value is not None:
            return value
    sign, logmag = falling_factorial_sign_logmag(t, r)
    return sign * math.exp(logmag)


def falling_factorial_sign_logmag(t: float, r: float) -> tuple[float, float]:
    """(sign, log|value|) of the falling factorial; sign 0.0 encodes value 0.

    Useful for assembling large series terms in log space.  Raises
    SingularGammaError exactly where :func:`falling_factorial` does.
    """
    ri = _snap_int(r)
    if ri is not None:
        sign, logmag = 1.0, 0.0
        if ri >= 0:
            for i in range(ri):
                factor = t - i
                if abs(factor) <= INTEGER_SNAP:
                    return 0.0, -math.inf
                sign *= math.copysign(1.0, factor)
                logmag += math.log(abs(factor))
            return sign, logmag
        for i in range(1, -ri + 1):
            factor = t + i
            if abs(factor) <= INTEGER_SNAP:
                raise SingularGammaError(
                    f"falling_factorial({t!r}, {r!r}) is singular"
                )
            sign *= math.copysign(1.0, factor)
            logmag -= math.log(abs(factor))
        return sign, logmag

    if _pole_index(t + 1.0) is not None:
        raise SingularGammaError(f"falling_factorial({t!r}, {r!r}) is singular")
    if _pole_index(t - r + 1.0) is not None:
        return 0.0, -math.inf
    if min(t + 1.0, t - r + 1.0) >= _STIRLING_MIN:
        return 1.0, r * math.log(t + 1.0) + _ratio_correction(t + 1.0, r)
    num_sign, num_log = _sign_lgamma(t + 1.0)
    den_sign, den_log = _sign_lgamma(t - r + 1.0)
    return num_sign * den_sign, num_log - den_log


def taylor_monomial(r: float, t: float, s: float) -> float:
    """Fractional Taylor monomial (t-s)^[r] / Gamma(r+1).

    Depends on t, s only through t - s.  When Gamma(r+1) itself poles
    (r a negative integer) the 1/Gamma factor vanishes, so the value is 0
    whenever the falling factorial stays finite; this limit is needed for
    the type-0 edge of the composed difference operators.
    """
    r_pole = _pole_index(r + 1.0)
    if r_pole is not None:
        falling_factorial(t - s, r)  # raises if the other factor is singular
        return 0.0
    x = t - s
    if -170.0 < r < 170.0 and _snap_int(r) is None and min(x + 1.0, x - r + 1.0) >= _STIRLING_MIN:
        # math.gamma is a normal float here and holds an ulp or two, where
        # lgamma is 1e-15 off near its zeros at 1 and 2
        value = _large_ratio(x, r, 1.0 / math.gamma(r + 1.0))
        if math.isinf(value):
            raise OverflowError(f"taylor_monomial({r!r}, {t!r}, {s!r}) is past the float range")
        return value
    if _snap_int(r) is None and _pole_index(x + 1.0) is None and _pole_index(x - r + 1.0) is None:
        value = _gamma_ratio(x + 1.0, x - r + 1.0, r + 1.0)
        if value is not None:
            return value
    sign, logmag = falling_factorial_sign_logmag(x, r)
    if sign == 0.0:
        return 0.0
    gamma_sign, gamma_log = _sign_lgamma(r + 1.0)
    return sign * gamma_sign * math.exp(logmag - gamma_log)


# ---------------------------------------------------------------------------
# sums and jumps


def delta_sum(f: GridFn, lo: float, hi: float) -> float:
    """Sum of f over {lo, lo+1, ..., hi-1}; 0 when hi <= lo (empty sum)."""
    if hi < lo + 0.5:
        return 0.0
    i_lo = f.grid.index_of(lo)
    i_hi = f.grid.index_of(hi - 1.0)
    return float(np.sum(f.values[i_lo : i_hi + 1]))


def jump_forward(x: float) -> float:
    """Forward jump sigma(x) = x + 1."""
    return x + 1.0


def jump_backward(x: float) -> float:
    """Backward jump rho(x) = x - 1."""
    return x - 1.0
