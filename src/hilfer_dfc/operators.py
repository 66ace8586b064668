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
there on a uniformly partitioned overlap-add FFT convolution of two
blocks or more, about 24 on long grids (Hairer, Lubich and Schlichte
1985, SIAM J. Sci. Stat. Comput. 6, partition the same sums).  An FFT's
error is relative to the largest terms it multiplies, not to each
point, so every segment-block product carries its own bound and an
output is kept only where the bound of its block is below 1e-13 of
conv(|k|, |f|) at that point; the points where it is not are summed
directly.  A zero prefix stays exactly zero, a trajectory spanning many
orders of magnitude keeps its early points, a decaying one its late
points, and a non-finite input takes the direct path.  The pointwise
fractional sum reads the whole-grid one, and a difference at one point
is a read of its ``*_fn`` GridFn.  Everything is pure and thread-safe:
each thread owns the scratch workspace the transforms reuse, kept up to
``_WORKSPACE_MAX`` bytes, and a result never aliases it.
"""

from __future__ import annotations

import logging
import math
import threading

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
    "rl_difference_fn",
    "caputo_difference_fn",
    "hilfer_difference_fn",
]


#: grid length from which causal_convolve transforms instead of summing
_FFT_MIN = 1152
#: a transformed grid is cut into as many blocks as blocks of
#: max(_BLOCK_MIN, the power of two >= n / _BLOCKS) points take: at least
#: two, since _FFT_MIN > _BLOCK_MIN
_BLOCK_MIN = 1024
_BLOCKS = 24
#: per-point accuracy the FFT outputs must meet, relative to conv(|k|, |f|)
_FFT_REL = 1e-13
#: bytes of transform scratch one thread keeps between causal_convolve
#: calls: about 14 x 8n bytes for n points, so up to about 150000 points
_WORKSPACE_MAX = 16 << 20

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
    return math.frexp(max(float(x.max()), -float(x.min())))[1]


class _Workspace(threading.local):
    """One thread's scratch arrays for the transform path, one per role.

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


_workspace = _Workspace()


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row, each from one dot product as numpy.linalg.norm takes it."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())


def _overlap_add(k_spec: np.ndarray, f_spec: np.ndarray, length: int, block: int) -> np.ndarray:
    """Block products transformed back in one batch and overlap-added,
    as (blocks, block) rows of the workspace.

    Output block q is the first half of the sum of k_p f_i over
    p + i = q plus the second half of the sum over p + i = q - 1.
    """
    count = len(f_spec)
    acc = _workspace.take("acc", f_spec.shape, complex)
    np.multiply(k_spec[0], f_spec, out=acc)
    prod = _workspace.take("prod", (count - 1, f_spec.shape[1]), complex)
    for p in range(1, count):
        acc[p:] += np.multiply(k_spec[p], f_spec[: count - p], out=prod[: count - p])
    full = np.fft.irfft(acc, length, out=_workspace.take("full", (count, length)))
    out = _workspace.take("sums", (count, block))
    out[...] = full[:, :block]
    out[1:] += full[:-1, block:]
    return out


def _direct_points(kernel: np.ndarray, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The causal convolution at the given points, one dot product each,
    against a contiguous reversed copy of the kernel."""
    n = len(values)
    reversed_kernel = np.zeros(n)
    reversed_kernel[n - len(kernel) :] = kernel[::-1]
    return np.array([np.dot(reversed_kernel[n - 1 - j :], values[: j + 1]) for j in points])


def causal_convolve(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First len(values) terms of the causal convolution of kernel and values.

    out[j] = sum_{i<=j} kernel[j-i] values[i].  Short inputs are summed
    directly.  From ``_FFT_MIN`` points on, the values are cut into blocks
    of B points and the kernel into segments of B lags, and every
    segment-block pair is a zero-padded real FFT product of length L = 2B.
    The products are summed per output block as spectra, transformed back
    in one batch and overlap-added.  Every grid is cut into as many blocks
    as max(``_BLOCK_MIN``, the power of two >= n / ``_BLOCKS``) takes, at
    least two, B the 5-smooth length that covers the grid in that many;
    the lag-0 term is added exactly, apart from the products.

    Pair (p, i) errs by at most eps log2(L) ||kernel_p|| ||values_i||, on
    output blocks p+i and p+i+1; a point's bound err is the sum of all
    pair bounds that land on its block.  The point is kept where err is
    below 1e-13 of conv(|kernel|, |values|) less err, that size computed
    by the same transform, and summed directly elsewhere: the leading run
    of failures by one direct sum, later failures by one dot product
    each.  With more than n/4 failures, or with err not finite, the whole
    convolution is summed directly.  The transform's rows, spectra and
    sums live in this thread's workspace, so a repeated call allocates
    little more than its result.  The ``hilfer_dfc.operators`` DEBUG
    record gives n, B, the block count and how many points were summed
    directly.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return np.empty(0)
    kernel = np.asarray(kernel, dtype=float)[:n]
    if n < _FFT_MIN:
        return np.convolve(kernel, values)[:n]
    count = -(-n // max(_BLOCK_MIN, 1 << (-(-n // _BLOCKS) - 1).bit_length()))
    block = _smooth_length(-(-n // count))
    length = 2 * block
    # exact power-of-two scaling keeps every spectrum below n in size,
    # written zero-padded into the rows the transforms read
    k_exp, f_exp = _binade(kernel), _binade(values)
    k_rows = _workspace.take("k_rows", (count, block))
    f_rows = _workspace.take("f_rows", (count, block))
    k_flat, f_flat = k_rows.reshape(-1), f_rows.reshape(-1)
    np.ldexp(kernel, -k_exp, out=k_flat[: len(kernel)])
    f_unit = np.ldexp(values, -f_exp, out=f_flat[:n])
    k_flat[len(kernel) :] = 0.0
    f_flat[n:] = 0.0
    # lag 0 holds most of the norm of a small-order sum kernel (c[0] = 1,
    # the rest of order mu): added apart, it does not inflate the bounds
    lead, k_flat[0] = k_flat[0], 0.0
    unit_err = np.finfo(float).eps * math.log2(length)
    block_err = np.convolve(unit_err * _row_norms(k_rows), _row_norms(f_rows))[:count]
    block_err[1:] += block_err[:-1]
    finite = math.isfinite(block_err.sum())
    err = block_err[:, None]  # each block's bound, over its row
    head, late = n, np.empty(0, dtype=int)
    if finite:
        spec_shape = (count, length // 2 + 1)
        k_spec = _workspace.take("k_spec", spec_shape, complex)
        f_spec = _workspace.take("f_spec", spec_shape, complex)
        scratch = _workspace.take("abs_rows", (count, block))
        # sum kernels are nonnegative: their spectrum serves both products
        signed = not kernel.min() >= 0
        np.fft.rfft(np.abs(k_rows, out=scratch) if signed else k_rows, length, out=k_spec)
        np.fft.rfft(np.abs(f_rows, out=scratch), length, out=f_spec)
        size = _overlap_add(k_spec, f_spec, length, block)
        if lead:  # scratch holds |f| here
            abs_f = scratch.reshape(-1)[:n]
            size.reshape(-1)[:n] += np.multiply(abs_f, abs(lead), out=abs_f)
        size -= err
        size *= _FFT_REL
        loose_mask = np.greater(err, size, out=_workspace.take("loose", (count, block), bool))
        loose = np.flatnonzero(loose_mask.reshape(-1)[:n])
        if len(loose) <= n / 4:
            gaps = np.flatnonzero(loose != np.arange(len(loose)))
            head = int(gaps[0]) if len(gaps) else len(loose)
            late = loose[head:]
    if head == n:
        out = np.convolve(kernel, values)[:n]
    else:
        if signed:
            np.fft.rfft(k_rows, length, out=k_spec)
        np.fft.rfft(f_rows, length, out=f_spec)
        sums = _overlap_add(k_spec, f_spec, length, block).reshape(-1)[:n]
        if lead:
            sums += np.multiply(f_unit, lead, out=scratch.reshape(-1)[:n])
        with np.errstate(over="ignore"):  # past the float range reads inf, as np.convolve's
            out = np.ldexp(sums, k_exp + f_exp)
        if head:
            out[:head] = np.convolve(kernel[:head], values[:head])[:head]
        if len(late):
            out[late] = _direct_points(kernel, values, late)
    # logged after the last workspace read: a handler may convolve
    _log.debug(
        "causal_convolve n=%d B=%d blocks=%d direct=%d",
        n, block, count, n if head == n else head + len(late),
    )
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
    lag = np.arange(1.0, length)
    ratio = np.subtract(lag, 1.0, out=c[1:])
    ratio += mu
    ratio /= lag
    np.cumprod(ratio, out=ratio)
    return c


def fractional_sum_fn(f: GridFn, mu: float) -> GridFn:
    """Fractional sum of order mu >= 0 of f, on its natural grid base+mu.

    Order 0 is the identity.  The output has one value per input point:
    the value at base+mu+j uses f at offsets 0..j.  A sum of finite
    samples past the float range raises OverflowError; non-finite samples
    propagate.
    """
    if abs(mu) <= INTEGER_SNAP:
        return f
    if mu < 0:
        raise ValueError(f"sum order must be nonnegative, got {mu}")
    sums = causal_convolve(sum_kernel(mu, f.count), f.values)
    if not np.isfinite(sums).all() and np.isfinite(f.values).all():
        raise OverflowError("fractional sum exceeds the float range")
    return GridFn(Grid(f.base + mu, f.count), sums)


def fractional_sum(f: GridFn, mu: float, x: float) -> float:
    """Fractional sum of order mu of f, evaluated at one point of base+mu:
    :func:`fractional_sum_fn` of the samples up to x, read at x."""
    if abs(mu) <= INTEGER_SNAP:
        return f(x)
    if mu < 0:
        raise ValueError(f"sum order must be nonnegative, got {mu}")
    j = Grid(f.base + mu, f.count).index_of(x)
    return float(fractional_sum_fn(GridFn(Grid(f.base, j + 1), f.values[: j + 1]), mu).values[j])


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


def caputo_difference_fn(f: GridFn, mu: float) -> GridFn:
    """Caputo difference of order mu in (0, 1], on base+1-mu."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"difference order must lie in (0, 1], got {mu}")
    return fractional_sum_fn(forward_difference_fn(f), 1.0 - mu)


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
