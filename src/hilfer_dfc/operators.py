"""Delta fractional sums and the three fractional difference operators.

The order-mu fractional sum based at ``a`` convolves samples against the
Taylor-monomial kernel and lives on the shifted grid starting at ``a+mu``;
the Riemann-Liouville difference is an integer difference after a
(1-mu)-sum, the Caputo difference a (1-mu)-sum after an integer
difference, and the two-parameter (Hilfer-type) difference is defined
as the composition

    sum of order beta = nu(1-mu), based where the inner stage lands
    o  forward difference
    o  sum of order alpha = (1-nu)(1-mu), based at a.

Two exact identities, S^beta Delta g = Delta S^beta g - c_beta[j+1] g(a)
and S^beta S^alpha = S^(alpha+beta), collapse it to

    D^{mu,nu} f [j] = (Delta S^(1-mu) f)[j] - c_beta[j+1] f(a),

the Riemann-Liouville difference less a closed-form initial term: one
convolution where the composition takes two.  Where alpha or beta is 0
(the nu=0 and nu=1 edges) the order-0 sum is the identity operator and
the composition runs stage by stage, each stage on its true shifted
grid.  The composition itself is what the ``composition-*`` checks of
:mod:`hilfer_dfc.verification` certify.

Whole-grid variants (``*_fn``) compute each sum once through
:func:`causal_convolve`, the one causal convolution of the library: a
direct sum below ``_FFT_MIN`` points (the measured crossover), and from
there on a uniformly partitioned overlap-add FFT convolution in two
blocks or more of at most ``_BLOCK`` points (Hairer, Lubich and
Schlichte 1985, SIAM J. Sci. Stat. Comput. 6, partition the same
sums).  An FFT's error is relative to the largest terms it multiplies,
not to each point, so every segment-block product carries its own bound
and an output is kept only where the bound of its block is below 1e-13
of conv(|k|, |f|) at that point; the points where it is not are summed
directly.  That sum is read off a floor and a ceiling built without a
transform, so a call runs the value transform alone, and no transform
when more than a quarter of the grid certainly fails.  Where the rule
would fall back, it first removes the cause and judges once more: a
steady rise is rescaled away by the r^-n weights of Bornemann (2011,
Found. Comput. Math. 11), and a first cell that dwarfs the rest is
summed directly against every output.  A zero prefix stays exactly
zero, a trajectory spanning many orders of magnitude keeps its early
points, a decaying one its late points, and a non-finite input takes
the direct path.  The pointwise fractional sum is one dot product of
the kernel with the samples up to its point, and a difference at one
point is a read of its ``*_fn`` GridFn.  Whole-grid results take over
the fresh arrays they are computed in.  Everything is pure and
thread-safe: each thread owns the scratch the transforms reuse, this
module's own instance of :class:`hilfer_dfc.grid._Workspace` (each
transform of the library has one), kept up to ``_WORKSPACE_MAX`` bytes,
and a result never aliases it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np

from .grid import (
    INTEGER_SNAP,
    CoverageError,
    Grid,
    GridFn,
    HilferOrder,
    _require_finite,
    _smooth_length,
    _Workspace,
    _WORKSPACE_MAX,
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
#: a transformed grid is cut into as many blocks as blocks of this many
#: points take: at least two, since _FFT_MIN > _BLOCK
_BLOCK = 1024
#: per-point accuracy the FFT outputs must meet, relative to conv(|k|, |f|)
_FFT_REL = 1e-13
#: points per cell of the magnitude bracket: lags below 2 _CELL are
#: bracketed point by point, older samples a cell at a time
_CELL = 16
#: undecided points after the leading run that causal_convolve sums
#: directly; past this many a transform of |k| against |f| decides them,
#: since more dot products cost more than that transform
_UNDECIDED_MAX = 32
#: binades a rise, or the first cell over the rest, needs to be removed
_REMEDY_MIN = 4
#: largest rise in binades that is rescaled: the weights stay normal floats
_RISE_MAX = 960
#: factors that deflate the floor's weights and inflate the ceiling's
#: past the few dozen roundings a bracket value takes
_BRACKET_SLACK = np.array([[1.0 - 256 * np.finfo(float).eps], [1.0 + 256 * np.finfo(float).eps]])
_BRACKET_SLACK.flags.writeable = False
#: causal_convolve's scratch: about 17 x 8n bytes for n points, so kept
#: between calls up to about 120000 points
_workspace = _Workspace()


def _binade(x: np.ndarray) -> int:
    """Exponent e with max|x| in [2^(e-1), 2^e); 0 for a zero array."""
    return math.frexp(max(float(x.max()), -float(x.min())))[1]


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


@functools.lru_cache(maxsize=64)
def _bracket_bands(n: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]:
    """The bands of :func:`_magnitude_bracket` for n points: the point
    bands' shifts, the cell bands' shifts, the reduceat edges of their lag
    ranges, and which extreme each band weighs by, as (floor, ceiling)
    rows of flat indices into the (2, edges + 2) array of the least and
    the greatest |k| per edge, each row followed by |lead| and 0."""
    shifts = (0, 1, *(1 << i for i in range(1, _CELL.bit_length())))
    # distance 3 (floor only), [2, 4) (ceiling only), [4, 8) ...
    cell_shifts = (3, 2, *(1 << i for i in range(2, ((n - 1) // _CELL).bit_length())))
    # point bands back to back, then a (start, stop) pair per cell band
    edges = [*shifts, 2 * _CELL, 2 * _CELL + 1, 4 * _CELL]
    for m in cell_shifts[1:]:
        edges += [(m - 1) * _CELL + 1, min(2 * m * _CELL, n)]
    if edges[-1] == n:
        edges.pop()
    lead, zero = len(edges), len(edges) + 1
    bands = [lead, *range(1, len(shifts)), *range(len(shifts) + 1, len(edges), 2)]
    picks = np.array([bands, bands])
    picks[0, len(shifts) + 1] = picks[1, len(shifts)] = zero
    picks[1] += len(edges) + 2
    edges = np.array(edges)
    edges.flags.writeable = picks.flags.writeable = False
    return shifts, cell_shifts, edges, picks


def _magnitude_bracket(kernel: np.ndarray, lead: float, values: np.ndarray, size: int) -> np.ndarray:
    """A floor and a ceiling of conv(|kernel|, |values|) at the first
    ``size`` points, the two rows of a (2, size) workspace array.

    kernel holds lags 1 to n-1, n = len(values) > 4 ``_CELL``; lag 0 is
    lead, and kernel[0] is not used.  Lags 0 and 1 are exact.  Lags in
    [w, 2w), w = 2, 4 up to ``_CELL``, weigh the window sum of |values|
    they reach by the least |k| of the band for the floor and the
    greatest for the ceiling.  Older samples count a cell of ``_CELL``
    points at a time: the cells at distance d in [m, 2m) from a point's
    own cell lie at lags from (m-1) _CELL + 1 to 2m _CELL - 1, weighed by
    the extremes of |k| there.  The ceiling takes every cell from
    distance 2 on and so counts some samples twice; the floor takes them
    from distance 3 on and so leaves a few out.  Window sums are doubled
    level by level from nonnegative terms, never taken as differences of
    prefix sums, which cancel: each sum is within a few dozen roundings
    of exact, and the weights are deflated and inflated by 256 eps to
    cover them (outside the subnormal range, like the transform's own
    bound).
    """
    n = len(values)
    cells = size // _CELL
    shifts, cell_shifts, edges, picks = _bracket_bands(n)
    near = len(shifts)
    # row i holds the window sum of width shifts[i] from column shifts[i]
    # on: its first size columns are the samples of band i at each point.
    # The bracket is read before any transform runs, so it borrows the
    # scratch of _overlap_add, its complex arrays as pairs of floats
    rows = _workspace.take("full", (near, size + _CELL))
    abs_k = np.abs(kernel, out=rows[0, :n])  # until |values| takes its place
    ends = np.zeros((2, len(edges) + 2))
    np.minimum.reduceat(abs_k, edges, out=ends[0, :-2])
    np.maximum.reduceat(abs_k, edges, out=ends[1, :-2])
    ends[:, -2] = abs(lead)
    weights = ends.reshape(-1)[picks]
    weights *= _BRACKET_SLACK
    rows[:, :_CELL] = 0.0
    rows[:2, n:] = 0.0
    np.abs(values, out=rows[0, :n])
    rows[1, 1 : n + 1] = rows[0, :n]
    for i in range(2, near):
        w, v = shifts[i], shifts[i - 1]
        np.add(rows[i - 1, v : v + size], rows[i - 1, :size], out=rows[i, w : w + size])
    out = _workspace.take("acc", (1, size), complex).view(float).reshape(2, size)
    np.matmul(weights[:, :near], rows[:, :size], out=out)
    # the same layout a cell at a time; each cell's sum is the widest
    # point window at the cell's last point
    top = cell_shifts[-1]
    cell_rows = _workspace.take("prod", (len(cell_shifts), -(-(cells + top) // 2)), complex).view(float)
    cell_rows[:, :top] = 0.0
    cell_rows[0, 3 : 3 + cells] = rows[-1, 2 * _CELL - 1 :: _CELL][:cells]
    np.add(cell_rows[0, 3 : 3 + cells], cell_rows[0, 2 : 2 + cells], out=cell_rows[1, 2 : 2 + cells])
    for i in range(2, len(cell_shifts)):
        w, v = cell_shifts[i], cell_shifts[i - 1]
        np.add(cell_rows[i - 1, v : v + cells], cell_rows[i - 1, :cells], out=cell_rows[i, w : w + cells])
    out.reshape(2, cells, _CELL)[...] += (weights[:, near:] @ cell_rows[:, :cells])[:, :, None]
    return out


def _exactly_loose(
    k_rows: np.ndarray, f_rows: np.ndarray, k_spec: np.ndarray, f_spec: np.ndarray,
    signed: bool, lead: float, err: np.ndarray, n: int,
) -> np.ndarray:
    """Indices of the points whose bound err exceeds 1e-13 of conv(|k|, |f|)
    less err, that size from a transform of |k| against |f| under the same
    bound.  An unsigned kernel's spectrum is left in k_spec."""
    count, block = f_rows.shape
    length = 2 * block
    # _overlap_add's inverse-transform rows serve as scratch before and
    # after it runs
    scratch = _workspace.take("full", (count, block))
    np.fft.rfft(np.abs(k_rows, out=scratch) if signed else k_rows, length, out=k_spec)
    np.fft.rfft(np.abs(f_rows, out=scratch), length, out=f_spec)
    size = _overlap_add(k_spec, f_spec, length, block)
    if lead:
        abs_f = np.abs(f_rows.reshape(-1)[:n], out=_workspace.take("full", (count, block)).reshape(-1)[:n])
        size.reshape(-1)[:n] += np.multiply(abs_f, abs(lead), out=abs_f)
    size -= err
    size *= _FFT_REL
    loose = np.greater(err, size, out=_workspace.take("loose", (count, block), bool))
    return np.flatnonzero(loose.reshape(-1)[:n])


def _leading_run(points: np.ndarray) -> int:
    """Length of the run 0, 1, 2, ... that the sorted distinct points start with."""
    if not len(points) or points[-1] == len(points) - 1:
        return len(points)
    gaps = np.flatnonzero(points != np.arange(len(points)))
    return int(gaps[0])


def causal_convolve(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First len(values) terms of the causal convolution of kernel and values.

    out[j] = sum_{i<=j} kernel[j-i] values[i].  Short inputs are summed
    directly.  From ``_FFT_MIN`` points on, the values are cut into blocks
    of B points and the kernel into segments of B lags, and every
    segment-block pair is a zero-padded real FFT product of length L = 2B.
    The products are summed per output block as spectra, transformed back
    in one batch and overlap-added.  Every grid is cut into as many blocks
    as blocks of ``_BLOCK`` points take, at least two, B the 5-smooth
    length that covers the grid in that many, so the bounds below do not
    grow with n; the lag-0 term is added exactly, apart from the products.

    Pair (p, i) errs by at most eps log2(L) ||kernel_p|| ||values_i||, on
    output blocks p+i and p+i+1; a point's bound err is the sum of all
    pair bounds that land on its block, and the point is kept where err
    is below 1e-13 of conv(|kernel|, |values|).  That sum is bracketed
    without a transform (:func:`_magnitude_bracket`): a point is kept
    where err is below 1e-13 of the floor and certainly fails where it is
    above 1e-13 of the ceiling.  With more than n/4 certain failures the
    whole convolution is summed directly before any transform runs.  With
    more than ``_UNDECIDED_MAX`` points between the two after the leading
    run of points not kept, or more than n/4 points not kept, the rule
    falls back to the size a transform of |kernel| against |values|
    gives, less err.

    Before either fallback the rule removes a cause and judges the call
    once more; a call it keeps takes neither remedy and keeps its bits.
    A rise of 2^4 to 2^960 from the first cell of ``_CELL`` values to the
    last is rescaled: with rho = 2^step, step a multiple of 2^-40 so that
    j step is exact, kernel rho^-l is transformed against values rho^-j
    and the sums are divided by the same weights rho^-j.  The term size
    conv(|kernel|, |values|) at j scales by rho^-j as well, so the
    bracket times the weights bounds the rescaled sizes; the weights add
    a few roundings per term, far inside the 1e-13.  A first cell 2^4
    above all the rest is summed against every output directly, n
    ``_CELL`` multiply-adds, and the rest is transformed: its smaller
    block bounds are judged against the bracket of the whole input,
    which is the size of the terms each output adds.

    The points not kept are summed directly: the leading run by one
    direct sum, later ones by one dot product each; with more than n/4 of
    them, or with err not finite, the whole convolution is.  Otherwise
    one value transform runs: two batched forward FFTs and one batched
    inverse.  The transform's rows, spectra and sums live in this
    thread's workspace, so a repeated call allocates little more than its
    result.  The ``hilfer_dfc.operators`` DEBUG record gives n, B, the
    block count and how many points were summed directly; it is emitted
    once the application has imported ``logging``.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return np.empty(0)
    kernel = np.asarray(kernel, dtype=float)[:n]
    if n < _FFT_MIN:
        # copied out of the 2n - 1 terms, which a result taken over by a
        # GridFn would otherwise keep alive
        return np.convolve(kernel, values)[:n].copy()
    count = -(-n // _BLOCK)
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
    head, late = n, np.empty(0, dtype=int)
    spec_shape = (count, length // 2 + 1)
    k_spec = _workspace.take("k_spec", spec_shape, complex)
    f_spec = _workspace.take("f_spec", spec_shape, complex)
    k_ready = False
    weights = head_cell = loose = None
    unit_err = np.finfo(float).eps * math.log2(length)
    for remedied in (False, True):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound takes the direct path
            block_err = np.convolve(unit_err * _row_norms(k_rows), _row_norms(f_rows))[:count]
            block_err[1:] += block_err[:-1]
        err = block_err[:, None]  # each block's bound, over its row
        if not math.isfinite(block_err.sum()):
            break
        if not remedied:
            padded = -(-count * block // _CELL) * _CELL
            bracket = _magnitude_bracket(k_flat[:n], lead, f_unit, padded)
            floor, ceiling = bracket[:, : count * block].reshape(2, count, block)
        limit = err / _FFT_REL
        sure = np.less(ceiling, limit, out=_workspace.take("sure", (count, block), bool)).reshape(-1)[:n]
        loose = None
        if np.count_nonzero(sure) <= n / 4:
            loose = np.less(floor, limit, out=_workspace.take("loose", (count, block), bool))
            loose = np.flatnonzero(loose.reshape(-1)[:n])
            run = _leading_run(loose)
            size_transform = len(loose) > n / 4 or (
                run < len(loose) and np.count_nonzero(~sure[loose[run:]]) > _UNDECIDED_MAX
            )
            if not size_transform:
                break
        if remedied:
            break
        rise = _binade(values[-_CELL:]) - _binade(values[:_CELL]) if values[:_CELL].any() else 0
        # a multiple of 2^-40, so that j * step is exact for every j < n
        step = math.ldexp(round(math.ldexp(rise / (n - _CELL), 40)), -40)
        if rise >= _REMEDY_MIN and (n - 1) * step <= _RISE_MAX:
            # conv(k, f)[j] = rho^j conv(k rho^-l, f rho^-j)[j], rho = 2^step
            weights = np.exp2(np.arange(n) * -step)
            k_flat[: len(kernel)] *= weights[: len(kernel)]
            shift, f_exp = f_exp, _binade(np.multiply(values, weights, out=f_unit))
            np.ldexp(f_unit, -f_exp, out=f_unit)
            bracket[:, :n] *= np.ldexp(weights, shift - f_exp)
        elif _binade(values[_CELL:]) + _REMEDY_MIN <= f_exp:
            # the first cell against every output directly; the rest is
            # judged against the bracket of the whole input
            head_cell = np.convolve(kernel, values[:_CELL])[:n]
            f_unit[:_CELL] = 0.0
        else:
            break
    if loose is not None and size_transform:
        # sum kernels are nonnegative: their spectrum serves both transforms
        signed = not kernel.min() >= 0
        loose = _exactly_loose(k_rows, f_rows, k_spec, f_spec, signed, lead, err, n)
        run = _leading_run(loose)
        k_ready = not signed
    if loose is not None and len(loose) <= n / 4:
        head, late = run, loose[run:]
    if head == n:
        out = np.convolve(kernel, values)[:n].copy()
    else:
        if not k_ready:
            np.fft.rfft(k_rows, length, out=k_spec)
        np.fft.rfft(f_rows, length, out=f_spec)
        sums = _overlap_add(k_spec, f_spec, length, block).reshape(-1)[:n]
        if lead:
            sums += np.multiply(f_unit, lead, out=_workspace.take("full", (count, block)).reshape(-1)[:n])
        if weights is not None:
            sums /= weights
        with np.errstate(over="ignore"):  # past the float range reads inf, as np.convolve's
            out = np.ldexp(sums, k_exp + f_exp)
            if head_cell is not None:
                out[: len(head_cell)] += head_cell
        if head:
            out[:head] = np.convolve(kernel[:head], values[:head])[:head]
        if len(late):
            out[late] = _direct_points(kernel, values, late)
    # logged after the last workspace read: a handler may convolve.  A
    # handler needs logging imported, so the call path never imports it
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(
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


def _within_range(
    total: Callable[[np.ndarray, np.ndarray], np.ndarray], kernel: np.ndarray, samples: np.ndarray
) -> np.ndarray:
    """total(kernel, samples); where finite samples overflow while summing,
    redone on them scaled by 2^-shift, so that no partial sum reaches 2^1022,
    and scaled back.  Past the float range after that raises OverflowError."""
    sums = total(kernel, samples)
    if not np.isfinite(sums).all() and np.isfinite(samples).all():
        shift = _binade(kernel) + len(kernel).bit_length() + _binade(samples) - 1022
        with np.errstate(over="ignore"):
            sums = np.ldexp(total(kernel, np.ldexp(samples, -shift)), shift)
        if not np.isfinite(sums).all():
            raise OverflowError("fractional sum exceeds the float range")
    return sums


def fractional_sum_fn(f: GridFn, mu: float) -> GridFn:
    """Fractional sum of order mu >= 0 of f, on its natural grid base+mu.

    Order 0 is the identity.  The output has one value per input point:
    the value at base+mu+j uses f at offsets 0..j.  A sum of finite
    samples past the float range raises OverflowError; non-finite samples
    propagate, and a non-finite order raises ValueError.
    """
    _require_finite(mu=mu)
    if abs(mu) <= INTEGER_SNAP:
        return f
    if mu < 0:
        raise ValueError(f"sum order must be nonnegative, got {mu}")
    sums = _within_range(causal_convolve, sum_kernel(mu, f.count), f.values)
    return GridFn._adopt(Grid(f.base + mu, f.count), sums)


def fractional_sum(f: GridFn, mu: float, x: float) -> float:
    """Fractional sum of order mu of f, evaluated at one point of base+mu:
    the one dot product of the kernel with the samples up to x, raising
    OverflowError as :func:`fractional_sum_fn` does."""
    _require_finite(mu=mu)
    if abs(mu) <= INTEGER_SNAP:
        return f(x)
    if mu < 0:
        raise ValueError(f"sum order must be nonnegative, got {mu}")
    j = Grid(f.base + mu, f.count).index_of(x)
    dot = functools.partial(np.convolve, mode="valid")
    return float(_within_range(dot, sum_kernel(mu, j + 1), f.values[: j + 1])[0])


def forward_difference_fn(f: GridFn) -> GridFn:
    """Forward difference f(x+1) - f(x), on the same base, one point
    shorter; OverflowError where finite samples differ past the float range
    (only finite operands raise the overflow flag)."""
    if f.count < 2:
        raise CoverageError("forward difference needs at least two samples")
    try:
        with np.errstate(over="raise"):
            diff = f.values[1:] - f.values[:-1]
    except FloatingPointError:
        raise OverflowError("forward difference exceeds the float range") from None
    return GridFn._adopt(Grid(f.base, f.count - 1), diff)


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

    With beta = nu(1-mu) the outer order, this is the Riemann-Liouville
    difference less c_beta[j+1] f(a) at point j: one order-(1-mu) sum.
    Where the inner or the outer order is within ``INTEGER_SNAP`` of 0
    the composition itself is one sum, so it runs stage by stage on its
    true grids: nu=0 is exactly the Riemann-Liouville path and nu=1 the
    Caputo path (the degenerate order-0 sums are identities).
    """
    inner, outer = order.inner_sum_order, order.outer_sum_order
    if min(inner, outer) <= INTEGER_SNAP:
        return fractional_sum_fn(forward_difference_fn(fractional_sum_fn(f, inner)), outer)
    rl = rl_difference_fn(f, order.mu)
    f_a = float(f.values[0])
    if f_a == 0.0:
        return rl
    initial = sum_kernel(outer, f.count)[1:]
    initial *= f_a
    try:
        with np.errstate(over="raise"):
            np.subtract(rl.values, initial, out=initial)
    except FloatingPointError:
        raise OverflowError("two-parameter difference exceeds the float range") from None
    return GridFn._adopt(rl.grid, initial)
