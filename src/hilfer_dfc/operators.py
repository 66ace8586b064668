"""Delta fractional sums and the three fractional difference operators.

The order-mu fractional sum based at ``a`` convolves samples against the
Taylor-monomial kernel and lives on the shifted grid starting at ``a+mu``;
the Riemann-Liouville difference is an integer difference after a
(1-mu)-sum, the Caputo difference a (1-mu)-sum after an integer
difference, and the two-parameter (Hilfer-type) difference interpolates
between them through the composition

    sum of order nu(1-mu), based where the inner stage lands
    o  forward difference
    o  sum of order (1-nu)(1-mu), based at a.

Intermediate stages are materialized on their true shifted grids, so a
starting-point mistake is an OffGridError rather than a silently wrong
number.  The order-0 sum is the identity operator, which is exactly what
the nu=0 and nu=1 edges of the composition require.

Whole-grid variants (``*_fn``) compute each stage once through
:func:`causal_convolve`, the one causal convolution of the library: a
direct sum below ``_FFT_MIN`` points (the measured crossover), and from
there on a zero-padded FFT.  The FFT's error is relative to the largest
term on the grid, not to each point, so its output is kept only where
its error bound is below 1e-13 of conv(|k|, |f|) at that point; the
leading outputs where it is not are summed directly.  A zero prefix
stays exactly zero, a trajectory spanning many orders of magnitude keeps
its early points, and a non-finite input takes the direct path.  The
pointwise forms wrap the whole-grid ones.  Everything is pure and
thread-safe.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .grid import (
    INTEGER_SNAP,
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
)

__all__ = [
    "causal_convolve",
    "sum_kernel",
    "fractional_sum",
    "fractional_sum_fn",
    "forward_difference_fn",
    "rl_difference",
    "rl_difference_fn",
    "caputo_difference",
    "caputo_difference_fn",
    "hilfer_difference",
    "hilfer_difference_fn",
]


#: grid length from which causal_convolve transforms instead of summing
_FFT_MIN = 1152
#: per-point accuracy the FFT outputs must meet, relative to conv(|k|, |f|)
_FFT_REL = 1e-13

_log = logging.getLogger(__name__)


def _smooth_length(target: int) -> int:
    """Smallest 2^i 3^j 5^k >= target: a length numpy.fft transforms fast."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35
            while length < target:
                length *= 2
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def _binade(x: np.ndarray) -> int:
    """Exponent e with max|x| in [2^(e-1), 2^e); 0 for a zero array."""
    return math.frexp(float(np.max(np.abs(x))))[1]


def causal_convolve(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First len(values) terms of the causal convolution of kernel and values.

    out[j] = sum_{i<=j} kernel[j-i] values[i].  Short inputs are summed
    directly.  From ``_FFT_MIN`` points on, a zero-padded real FFT of
    length L does the work: its error at every point is below
    err = eps log2(L) ||kernel|| ||values||, and the leading outputs where
    err is not below 1e-13 of the FFT's own conv(|kernel|, |values|)
    (less err) are recomputed directly.  When that head is the whole grid,
    or err is not finite, the whole convolution is summed directly.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return np.empty(0)
    kernel = np.asarray(kernel, dtype=float)[:n]
    if n < _FFT_MIN:
        return np.convolve(kernel, values)[:n]
    length = _smooth_length(2 * n - 1)
    # exact power-of-two scaling keeps every spectrum below n in size
    k_exp, f_exp = _binade(kernel), _binade(values)
    k_unit, f_unit = np.ldexp(kernel, -k_exp), np.ldexp(values, -f_exp)
    err = (
        np.finfo(float).eps
        * math.log2(length)
        * float(np.linalg.norm(k_unit))
        * float(np.linalg.norm(f_unit))
    )
    head = n
    if math.isfinite(err):
        k_spec = np.fft.rfft(k_unit, length)
        # sum kernels are nonnegative: their spectrum serves both products
        if kernel.min() >= 0:
            abs_spec = k_spec.copy()
        else:
            abs_spec = np.fft.rfft(np.abs(k_unit), length)
        abs_spec *= np.fft.rfft(np.abs(f_unit), length)
        size = np.fft.irfft(abs_spec, length)[:n]
        del abs_spec
        loose = np.flatnonzero(err > _FFT_REL * (size - err))
        head = int(loose[-1]) + 1 if len(loose) else 0
    _log.debug("causal_convolve n=%d L=%d head=%d", n, length, head)
    if head == n:
        return np.convolve(kernel, values)[:n]
    k_spec *= np.fft.rfft(f_unit, length)
    out = np.ldexp(np.fft.irfft(k_spec, length)[:n], k_exp + f_exp)
    del k_spec
    if head:
        out[:head] = np.convolve(kernel[:head], values[:head])[:head]
    return out


def sum_kernel(mu: float, length: int) -> np.ndarray:
    """Kernel weights c[l] = Gamma(l+mu) / (Gamma(l+1) Gamma(mu)), l < length.

    c[lag] is the Taylor-monomial value h_{mu-1} at integer lag; every
    fractional sum on a unit-step grid is a discrete convolution against
    these weights.  They are the running product of (lag-1+mu)/lag.
    """
    if length <= 0:
        return np.empty(0)
    c = np.empty(length)
    c[0] = 1.0
    lag = np.arange(1, length)
    np.cumprod((lag - 1 + mu) / lag, out=c[1:])
    return c


def fractional_sum_fn(f: GridFn, mu: float) -> GridFn:
    """Fractional sum of order mu >= 0 of f, on its natural grid base+mu.

    Order 0 is the identity.  The output has one value per input point:
    the value at base+mu+j uses f at offsets 0..j.
    """
    if abs(mu) <= INTEGER_SNAP:
        return f
    if mu < 0:
        raise ValueError(f"sum order must be nonnegative, got {mu}")
    n = f.count
    values = causal_convolve(sum_kernel(mu, n), f.values)
    return GridFn(Grid(f.base + mu, n), values)


def fractional_sum(f: GridFn, mu: float, x: float) -> float:
    """Fractional sum of order mu of f, evaluated at one point of base+mu."""
    if abs(mu) <= INTEGER_SNAP:
        return f(x)
    if mu < 0:
        raise ValueError(f"sum order must be nonnegative, got {mu}")
    j = Grid(f.base + mu, f.count).index_of(x)
    kernel = sum_kernel(mu, j + 1)
    return float(np.dot(kernel[::-1], f.values[: j + 1]))


def forward_difference_fn(f: GridFn) -> GridFn:
    """Forward difference f(x+1) - f(x), on the same base, one point shorter."""
    if f.count < 2:
        raise CoverageError("forward difference needs at least two samples")
    return GridFn(Grid(f.base, f.count - 1), np.diff(f.values))


def rl_difference_fn(f: GridFn, mu: float) -> GridFn:
    """Riemann-Liouville difference of order mu in (0, 1], on base+1-mu."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"difference order must lie in (0, 1], got {mu}")
    return forward_difference_fn(fractional_sum_fn(f, 1.0 - mu))


def rl_difference(f: GridFn, mu: float, x: float) -> float:
    return rl_difference_fn(f, mu)(x)


def caputo_difference_fn(f: GridFn, mu: float) -> GridFn:
    """Caputo difference of order mu in (0, 1], on base+1-mu."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"difference order must lie in (0, 1], got {mu}")
    return fractional_sum_fn(forward_difference_fn(f), 1.0 - mu)


def caputo_difference(f: GridFn, mu: float, x: float) -> float:
    return caputo_difference_fn(f, mu)(x)


def hilfer_difference_fn(f: GridFn, order: HilferOrder) -> GridFn:
    """Two-parameter fractional difference of f, on base+1-mu.

    The three stages run on their true grids: the inner sum lands on
    base + (1-nu)(1-mu), is differenced there, and the outer sum carries
    the result to base + 1 - mu.  nu=0 reduces exactly to the
    Riemann-Liouville path and nu=1 to the Caputo path (the degenerate
    order-0 sums are identities).
    """
    inner = fractional_sum_fn(f, order.inner_sum_order)
    differenced = forward_difference_fn(inner)
    return fractional_sum_fn(differenced, order.outer_sum_order)


def hilfer_difference(f: GridFn, order: HilferOrder, x: float) -> float:
    return hilfer_difference_fn(f, order)(x)
