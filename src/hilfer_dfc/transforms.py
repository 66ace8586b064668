"""Delta exponential function and the truncated delta Laplace transform.

The transform based at ``a`` is the generating-function sum

    L_a{f}(y) = sum_{x = a}^{inf} f(x) (1+y)^{-(x-a+1)},

evaluated for real y on the ray |1+y| > r, where r > 1 is the assumed
exponential order of f.  Truncation is controlled by a geometric tail
bound M (r/|1+y|)^N / (1 - r/|1+y|) with M estimated from the computed
prefix; if f outgrows r^x the estimate keeps climbing and the evaluation
reports failure instead of returning a silently wrong value.

The identity-check helpers return (lhs, rhs) pairs and leave the
tolerance judgement to the caller.  The sum and two-parameter checks
apply their operator only to the prefix of f the tail bound needs: both
operators are causal, so the first outputs of a prefix are those of the
whole grid, and the whole grid is the last prefix tried.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFn, HilferOrder, LibraryError, _require_finite, _require_positive
from .operators import (
    forward_difference_fn,
    fractional_sum_fn,
    hilfer_difference_fn,
)

__all__ = [
    "LaplaceCtl",
    "LaplaceResult",
    "RegressivityError",
    "TransformDomainError",
    "TruncationError",
    "delta_exp",
    "delta_laplace",
    "laplace_of_fractional_sum_check",
    "laplace_of_integer_difference_check",
    "laplace_of_hilfer_check",
    "laplace_base_shift_check",
]

#: most terms delta_laplace sums
_MAX_TERMS = 100_000


class RegressivityError(LibraryError, ValueError):
    """1 + p(t) vanished somewhere on the traversed range."""


class TransformDomainError(LibraryError, ValueError):
    """y violates the |1+y| > r convergence precondition."""


class TruncationError(LibraryError, RuntimeError):
    """The tail bound was not met before samples or _MAX_TERMS ran out."""


@dataclass(frozen=True)
class LaplaceCtl:
    """Truncation policy for the transform.

    ``r`` is the assumed exponential order of the transformed function
    (r > 1); evaluation requires |1+y| > r.
    """

    r: float = 1.5
    tol: float = 1e-10

    def __post_init__(self) -> None:
        _require_finite(r=self.r)
        if self.r <= 1.0:
            raise ValueError(f"exponential order bound r must exceed 1: got {self.r!r}")
        _require_positive(tol=self.tol)


@dataclass(frozen=True)
class LaplaceResult:
    value: float
    tail_bound: float
    terms: int


def delta_exp(p, x: float, y: float) -> float:
    """Delta exponential: product of 1 + p(t) for t from y up to x - 1.

    ``p`` may be a constant, a GridFn, or any callable of one real.  For
    x below y the reciprocal product is used; x = y gives the empty
    product 1.  A vanishing 1 + p(t) on the traversed range violates
    regressivity and raises.
    """
    if callable(p):
        p_at = p
    else:
        pc = float(p)
        p_at = lambda _t: pc  # noqa: E731

    span = round(x - y)
    if abs((x - y) - span) > 1e-9:
        raise ValueError(f"x - y = {x - y!r} is not an integer step count")

    out, start = 1.0, min(x, y)
    for k in range(abs(span)):
        factor = 1.0 + float(p_at(start + k))
        if factor == 0.0:
            raise RegressivityError(f"1 + p({start + k!r}) = 0")
        out = out * factor if span >= 0 else out / factor
    return out


def delta_laplace(f: GridFn, y: float, ctl: LaplaceCtl = LaplaceCtl()) -> LaplaceResult:
    """Truncated transform of f based at its own grid base.

    Terms are added until the geometric tail bound drops below ctl.tol;
    running out of samples or of ``_MAX_TERMS`` terms first raises
    TruncationError, and a non-finite y or sample it reaches raises ValueError.
    """
    _require_finite(y=y)
    q = 1.0 + y
    if abs(q) <= ctl.r:
        raise TransformDomainError(
            f"|1+y| = {abs(q)!r} must exceed the order bound r = {ctl.r!r}"
        )
    limit = min(f.count, _MAX_TERMS)
    result = _summed(f.values[:limit], q, ctl)
    if result is not None:
        return result
    if limit == f.count and not f.values.any():
        return LaplaceResult(0.0, 0.0, limit)  # zero everywhere
    raise TruncationError(
        f"tail bound {ctl.tol!r} not met within {limit} samples; "
        "either supply more samples or raise ctl.r/.tol"
    )


def _summed(values: np.ndarray, q: float, ctl: LaplaceCtl) -> LaplaceResult | None:
    """The transform's terms over values, 1+y = q, summed until the tail
    bound drops below ctl.tol; None when it does not within them.  A
    non-finite sample reached first raises ValueError."""
    ratio = ctl.r / abs(q)
    total = 0.0
    growth = 0.0  # running estimate of sup |f| / r^offset
    qpow = 1.0 / q
    rpow = 1.0
    for k in range(len(values)):
        sample = float(values[k])
        if not math.isfinite(sample):
            raise ValueError(f"the transform needs finite samples: f[{k}] is {sample!r}")
        total += sample * qpow
        growth = max(growth, abs(sample) / rpow)
        tail = growth * ratio ** (k + 1) / (1.0 - ratio)
        # a zero prefix says nothing about the samples after it
        if growth > 0.0 and tail < ctl.tol:
            return LaplaceResult(total, tail, k + 1)
        qpow /= q
        rpow *= ctl.r
    return None


def _operator_transform(
    operator: Callable[[GridFn], GridFn], f: GridFn, y: float, ctl: LaplaceCtl
) -> float:
    """delta_laplace(operator(f), y, ctl).value, with operator applied to
    the prefix of f the tail bound needs.

    operator is causal: on the first K samples of f it gives the first
    outputs of operator(f), one fewer where it differences.  Prefixes
    start at the power of two above the terms the bound needs at unit
    growth and double until the bound holds; the last attempt is the
    whole grid, so a zero output, a truncation and a non-finite sample
    past every prefix are judged as delta_laplace judges them.
    """
    q = 1.0 + y
    if math.isfinite(y) and abs(q) > ctl.r:
        ratio = ctl.r / abs(q)
        terms = (math.log(ctl.tol) + math.log1p(-ratio)) / math.log(ratio)
        # np.convolve sums the last output of an input under 12 points in
        # its own order, apart from the longer input's
        size = 1 << max(math.ceil(terms), 16).bit_length()
        while size < f.count:
            prefix = operator(GridFn(Grid(f.base, size), f.values[:size]))
            result = _summed(prefix.values[:_MAX_TERMS], q, ctl)
            if result is not None:
                return result.value
            size *= 2
    return delta_laplace(operator(f), y, ctl).value


def _real_power(ratio: float, exponent: float) -> float:
    if ratio <= 0.0:
        raise TransformDomainError(
            "closed forms with fractional powers need (y+1)/y > 0; "
            "evaluate on the real ray y > 0"
        )
    return ratio**exponent


def laplace_of_fractional_sum_check(
    f: GridFn, mu: float, y: float, ctl: LaplaceCtl = LaplaceCtl()
) -> tuple[float, float]:
    """lhs: transform (based at base+mu) of the order-mu sum of f, the
    sum taken over the prefix of f the tail bound needs;
    rhs: ((y+1)/y)^mu times the transform of f."""
    _require_finite(mu=mu)
    lhs = _operator_transform(lambda g: fractional_sum_fn(g, mu), f, y, ctl)
    rhs = _real_power((y + 1.0) / y, mu) * delta_laplace(f, y, ctl).value
    return lhs, rhs


def laplace_of_integer_difference_check(
    f: GridFn, m: int, y: float, ctl: LaplaceCtl = LaplaceCtl()
) -> tuple[float, float]:
    """lhs: transform of the m-th forward difference of f;
    rhs: y^m F - sum_j y^j (Delta^{m-1-j} f)(base)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    diffs = [f]
    for _ in range(m):
        diffs.append(forward_difference_fn(diffs[-1]))
    lhs = delta_laplace(diffs[m], y, ctl).value
    rhs = (y**m) * delta_laplace(f, y, ctl).value
    for j in range(m):
        rhs -= (y**j) * float(diffs[m - 1 - j].values[0])
    return lhs, rhs


def laplace_of_hilfer_check(
    f: GridFn, order: HilferOrder, y: float, ctl: LaplaceCtl = LaplaceCtl()
) -> tuple[float, float]:
    """lhs: transform (based at base+1-mu) of the two-parameter difference,
    taken over the prefix of f the tail bound needs;
    rhs: y^mu (y+1)^(1-mu) F - ((y+1)/y)^(nu(1-mu)) f(a), f(a) the inner
    sum's value at its own base point.

    At nu=0 the prefactor is 1 and the rhs collapses to the
    Riemann-Liouville transform formula; at nu=1 the inner sum is the
    identity and the rhs is the Caputo transform formula.
    """
    lhs = _operator_transform(lambda g: hilfer_difference_fn(g, order), f, y, ctl)
    f_transform = delta_laplace(f, y, ctl).value
    rhs = (
        _real_power(y, order.mu) * _real_power(y + 1.0, 1.0 - order.mu) * f_transform
        - _real_power((y + 1.0) / y, order.outer_sum_order) * float(f.values[0])
    )
    return lhs, rhs


def laplace_base_shift_check(
    f: GridFn, y: float, ctl: LaplaceCtl = LaplaceCtl()
) -> tuple[float, float]:
    """lhs: transform of f based one point later;
    rhs: (1+y) L{f}(y) - f(base)."""
    shifted = GridFn(Grid(f.base + 1.0, f.count - 1), f.values[1:])
    lhs = delta_laplace(shifted, y, ctl).value
    rhs = (1.0 + y) * delta_laplace(f, y, ctl).value - float(f.values[0])
    return lhs, rhs
