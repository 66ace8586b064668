"""Shifted integer grids and gamma-ratio special functions.

Every function in this library lives on an isolated time scale
``{base, base+1, base+2, ...}``: a real base point with unit step.  Grid
points are carried as (real base, integer index) so that shifted grids
(base + mu, base + 1 - eta, ...) never accumulate floating-point drift
in the step.

Every gamma ratio Gamma(x+1) / Gamma(x-r+1) / Gamma(d) climbs one
ladder: Stirling's series under a power where x+1 and x-r+1 are large,
else a quotient of ``math.gamma`` values where those are normal floats,
else exp of the log form, ``math.lgamma`` with the sign of Gamma.  Its
callers reject the poles (nonpositive integers, to within INTEGER_SNAP)
first.  An integer order r multiplies |r| factors instead (divides by
them for r < 0), and is zero where one of them is 0.0, in the value and
the log form alike; the value form stops at its first zero or overflowed
product, whose sign the factors left only flip.  The log form reads the
log sum of the positive factors and that of the negative ones each off
two log-gammas (Stirling's series where both are large), so it is O(1)
in r.

All operations are pure functions of immutable inputs and are safe to
share across threads.  The per-thread scratch class of the library's
transforms lives here too, so that each transform module keeps its own
instance without loading another.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections.abc import Iterator
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
    "LibraryError",
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
#: bytes of transform scratch one workspace keeps between calls per thread
_WORKSPACE_MAX = 16 << 20


class LibraryError(Exception):
    """Base of the library's errors; each also keeps its builtin base."""


class OffGridError(LibraryError, ValueError):
    """A point does not lie on the grid it was evaluated against."""


class CoverageError(LibraryError, ValueError):
    """A function does not cover all indices an operator needs to reach."""


class SingularGammaError(LibraryError, ArithmeticError):
    """A gamma ratio is evaluated where its value is genuinely infinite."""


def _pole_index(x: float) -> int | None:
    """Index -n of the gamma pole n <= 0 within INTEGER_SNAP of x, else None."""
    n = _snap_int(x)
    return -n if n is not None and n <= 0 else None


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is not a finite real."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: got {value!r}")


def _require_positive(**values: float) -> None:
    """Raise ValueError naming the first argument that is not a finite positive real."""
    _require_finite(**values)
    for name, value in values.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive: got {value!r}")


def _snap_int(x: float) -> int | None:
    """Nearest integer when ``x`` is within INTEGER_SNAP of it, else None."""
    n = round(x)
    return n if abs(x - n) <= INTEGER_SNAP else None


@functools.lru_cache(maxsize=256)
def _smooth_length(target: int) -> int:
    """Smallest 2^i 3^j 5^k >= target: a length numpy.fft transforms fast."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class _Workspace(threading.local):
    """One thread's scratch arrays for a transform, one per role.

    An array only grows, and a grown one is kept only while all kept
    arrays stay within ``_WORKSPACE_MAX`` bytes; otherwise it serves one
    call.  Results are always fresh arrays, never views of these.
    """

    def __init__(self) -> None:
        self.kept: dict[str, np.ndarray] = {}

    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.kept.values())

    def take(self, role: str, shape: tuple[int, int], dtype: type = float) -> np.ndarray:
        size = shape[0] * shape[1]
        array = self.kept.get(role)
        if array is None or array.size < size:
            held = self.nbytes() - (0 if array is None else array.nbytes)
            array = np.empty(size, dtype)
            if held + array.nbytes <= _WORKSPACE_MAX:
                self.kept[role] = array
        return array[:size].reshape(shape)


def _sign_lgamma(x: float) -> tuple[float, float]:
    """(sign of Gamma(x), log|Gamma(x)|) for x off the poles."""
    sign = 1.0 if x > 0.0 or math.floor(x) % 2 == 0 else -1.0
    return sign, math.lgamma(x)


def _ratio_correction(x: float, r: float) -> float:
    """log Gamma(x) - log Gamma(x - r) - r log x, for x, x - r >= _STIRLING_MIN.

    Stirling's series for both gammas less the r log x they share: the
    rest is O(r^2 / x) with absolute error about eps |r|, where the
    lgamma difference loses eps |lgamma(x)|.
    """
    tails = [sum(c * y ** -(2 * k + 1) for k, c in enumerate(_STIRLING)) for y in (x, x - r)]
    return -(x - r - 0.5) * math.log1p(-r / x) - r + tails[0] - tails[1]


def _log_factors(hi: float, lo: float, n: int) -> float:
    """log Gamma(hi) - log Gamma(lo) for lo > 0 and n = hi - lo: the log
    sum of the n factors lo, ..., hi - 1."""
    if lo >= _STIRLING_MIN:
        return n * math.log(hi) + _ratio_correction(hi, n)
    return math.lgamma(hi) - math.lgamma(lo)


def _large_ratio(t: float, r: float, scale: float) -> float:
    """scale Gamma(t+1) / Gamma(t-r+1), both arguments >= _STIRLING_MIN;
    inf past the float range.  pow keeps the value to an ulp where exp of
    the log form loses eps |r log t|.  Halved, or cut into more
    power-of-two parts where a half would leave the float range, no
    intermediate overflows or underflows unless the value does."""
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
        if not math.isfinite(self.base):
            raise ValueError(f"base must be finite: got {self.base!r}")
        if not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"count must be an integer: got {self.count!r}")
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


def _falling_factors(t: float, r: float, n: int) -> Iterator[float]:
    """Factors t - i of the falling function of integer order n = round(r),
    in order: i = 0, ..., n-1 for n >= 0, else i = -1, ..., n, dividing the
    value; a divisor within INTEGER_SNAP of 0 is a pole."""
    for i in range(n) if n >= 0 else range(-1, n - 1, -1):
        if n < 0 and abs(t - i) <= INTEGER_SNAP:
            raise SingularGammaError(f"falling_factorial({t!r}, {r!r}) is singular")
        yield t - i


def _ratio_ladder(x: float, r: float, d: float, name: str, args: tuple) -> float:
    """Gamma(x+1) / Gamma(x-r+1) / Gamma(d), d off the poles, by the ladder
    of the module docstring; integer r takes the log form, or where
    x - r + 1 < 0 the reflection (-1)^r Gamma(r-x) / Gamma(-x), its ratio
    Gamma(r-x) / Gamma(d) by Stirling's series where both are large.  Past
    the float range raises OverflowError naming the call name(*args).
    A math.gamma quotient holds a few ulps where exp of an lgamma
    difference is 1e-15 off near the zeros of lgamma at 1 and 2, and exp
    of the log form loses eps |log| of the two gammas.
    """
    num, den = x + 1.0, x - r + 1.0
    if _snap_int(r) is None:
        # on -169 < d < 171, Gamma(d) and 1 / Gamma(d) are normal floats
        if -169.0 < d < 171.0 and min(num, den) >= _STIRLING_MIN:
            value = _large_ratio(x, r, 1.0 / math.gamma(d))
            if math.isinf(value):
                raise OverflowError(f"{name}{args!r} is past the float range")
            return value
        in_range = -170.0 < min(num, den, d) and max(num, den, d) < 171.0
        if _pole_index(num) is None and _pole_index(den) is None and in_range:
            value = math.gamma(num)
            for divisor in (den, d):
                value /= math.gamma(divisor)
                if not _TINY <= abs(value) < math.inf:
                    break  # a quotient that is not a normal float has lost digits
            else:
                return value
    sign, logmag = falling_factorial_sign_logmag(x, r)
    if sign == 0.0:
        return 0.0
    ri = _snap_int(r)
    # for x < r - 1 the reflection (-1)^r Gamma(r-x) / Gamma(-x) errs by
    # eps |x| where the log form errs by eps r log r, so for x > -r.  It
    # is read as the reciprocal Gamma(-x) Gamma(d) / Gamma(r-x) from d and
    # d - r + x, since r - x rounds by an ulp of r.  Gamma(-x) is a normal
    # float for -171 < x < 169 and |x| >= _TINY, off the poles (an
    # integer x gave the exact zero above)
    reflect = ri is not None and -min(ri, 171.0) < x < min(ri - 1.0, 169.0) and abs(x) >= _TINY
    if reflect and min(ri - x, d) >= _STIRLING_MIN:
        reciprocal = _large_ratio(d - 1.0, d - ri + x, math.gamma(-x))
        if _TINY <= abs(reciprocal) < math.inf:
            return (-1.0) ** ri / reciprocal
    d_sign, d_log = _sign_lgamma(d)
    try:
        return sign * d_sign * math.exp(logmag - d_log)
    except OverflowError:
        raise OverflowError(f"{name}{args!r} is past the float range") from None


def falling_factorial(t: float, r: float) -> float:
    """Generalized falling function Gamma(t+1)/Gamma(t-r+1); a value past
    the float range raises OverflowError.  Conventions at gamma poles:

    * integer r >= 0: the exact product t(t-1)...(t-r+1), the limit of the
      gamma ratio everywhere (also at negative integer t, where numerator
      and denominator pole together);
    * integer r < 0: the reciprocal product 1/((t+1)...(t-r)), singular
      where a factor is within INTEGER_SNAP of 0;
    * non-integer r with a denominator pole only: exactly 0.0 (the zero
      that ends the discrete Mittag-Leffler and solution series);
    * non-integer r with a numerator pole: raises SingularGammaError,
      also where both arguments are within INTEGER_SNAP of a pole, as a
      non-integer r allows for |r - round(r)| <= 2 INTEGER_SNAP: the
      ratio there hangs on digits below the snap.
    """
    _require_finite(t=t, r=r)
    ri = _snap_int(r)
    if ri is None:
        return _ratio_ladder(t, r, 1.0, "falling_factorial", (t, r))
    out = 1.0
    for done, factor in enumerate(_falling_factors(t, r, ri), 1):
        out *= factor
        if out == 0.0 or not math.isfinite(out):
            # a zero or an infinity: the factors t - i left, lo <= i < hi,
            # only flip its sign, once per i > t; for r < 0 one may be a pole
            lo, hi = (done, ri) if ri >= 0 else (ri, -done)
            pole = _snap_int(t)
            if ri < 0 and pole is not None and lo <= pole < hi:
                raise SingularGammaError(f"falling_factorial({t!r}, {r!r}) is singular")
            if max(hi - max(lo, math.floor(t) + 1), 0) % 2:
                out = -out
            break
    if ri < 0:
        return 1.0 / out
    if not math.isfinite(out):
        if 0.0 <= t < ri and t == math.floor(t):
            return 0.0  # a zero factor met the overflowed product
        raise OverflowError(f"falling_factorial({t!r}, {r!r}) is past the float range")
    return out


def falling_factorial_sign_logmag(t: float, r: float) -> tuple[float, float]:
    """(sign, log|value|) of the falling factorial; sign 0.0 encodes value 0.

    Useful for assembling large series terms in log space.  Raises
    SingularGammaError exactly where :func:`falling_factorial` does, and
    has its exact zeros: a denominator pole, or for integer r a factor
    that is 0.0.  Its time does not grow with r.
    """
    _require_finite(t=t, r=r)
    ri = _snap_int(r)
    if ri is not None:
        # the factors t - i, lo <= i < hi, are positive for i < c and
        # negative from c on; at c = floor(t) + 1 the two factors next to
        # 0, t - (c - 1) and c - t, are formed without rounding (Sterbenz)
        lo, hi = (0, ri) if ri >= 0 else (ri, 0)
        pole = _snap_int(t)
        if ri < 0 and pole is not None and lo <= pole < hi:
            raise SingularGammaError(f"falling_factorial({t!r}, {r!r}) is singular")
        if ri > 0 and 0.0 <= t < ri and t == math.floor(t):
            return 0.0, -math.inf
        c = min(max(math.floor(t) + 1, lo), hi)
        logmag = 0.0
        if c > lo:
            logmag += _log_factors(t - lo + 1.0, t - (c - 1), c - lo)
        if hi > c:
            logmag += _log_factors(hi - t, c - t, hi - c)
        return (-1.0 if (hi - c) % 2 else 1.0), (logmag if ri >= 0 else -logmag)
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
    _require_finite(r=r, t=t, s=s)
    if _pole_index(r + 1.0) is not None:
        falling_factorial(t - s, r)  # raises if the other factor is singular
        return 0.0
    return _ratio_ladder(t - s, r, r + 1.0, "taylor_monomial", (r, t, s))


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
