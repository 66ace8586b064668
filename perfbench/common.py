"""Pieces shared by the workloads: op records, outcomes and seeded draws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: relative tolerance for trajectories, residuals and identities
TOL = 1e-8

#: documented defects an op may hit; any other failure makes a run incorrect
KNOWN_DEFECTS = {
    "4a": "ROADMAP 4a: series routes lose accuracy for negative lam",
    "4b": "ROADMAP 4b: SeriesConvergenceError past 512 terms",
    "4c": "ROADMAP 4c: a non-finite value reported as overflow",
    "laplace-zero-prefix": "delta_laplace estimates its tail from the prefix, "
    "so a zero first sample stops it after one term",
}


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``shares`` weighs the workload's yardsticks for this op (see
    ``yardstick.scale_factor``).
    """

    slot: int
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "Outcome"]
    shares: tuple[float, ...] = (1.0,)


@dataclass
class Outcome:
    """Checked result of one op.

    ``failures`` holds reason labels; ``known`` maps each label that
    matches a documented defect to its key in ``KNOWN_DEFECTS``.  ``err`` is the
    worst relative error the op's checks measured; ``bytes_written`` the
    size of the files the op wrote.
    """

    failures: list[str] = field(default_factory=list)
    known: dict[str, str] = field(default_factory=dict)
    err: float = 0.0
    bytes_written: int = 0

    def fail(self, reason: str, known: str | None = None) -> None:
        self.failures.append(reason)
        if known is not None:
            self.known[reason] = known

    def error(self, value: float, limit: float, reason: str, known: str | None = None) -> None:
        """Record a measured relative error; fail when above ``limit``.

        A check exposed to a known defect feeds only the failure count: its
        error jumps by orders of magnitude across the defect's threshold,
        so it would swamp ``err`` with a value set by the input jitter.
        """
        if not math.isfinite(value) or value > limit:
            self.fail(reason, known)
        elif known is None:
            self.err = max(self.err, value)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def unexplained(self) -> list[str]:
        return [r for r in self.failures if r not in self.known]


def stratified(rng: np.random.Generator, strata: list[int], count: int, width: float = 1.0) -> np.ndarray:
    """Points in [0, 1): slot i lands in stratum ``strata[i]`` of ``count``.

    The slot-to-stratum map is fixed and the seed only jitters inside a
    stratum (over ``width`` of it), so every seed covers the whole range
    in the same order; that keeps the work per run, and hence the
    end-to-end figures, comparable across seeds.
    """
    u = rng.uniform(0.0, width, len(strata))
    return (np.asarray(strata) + u) / count


def spread_order(count: int) -> list[int]:
    """Stratum order whose every prefix spreads over the whole range."""
    bits = max(1, (count - 1).bit_length())
    order = sorted(range(count), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return order


def log_range(lo: float, hi: float, x: np.ndarray) -> np.ndarray:
    return lo * (hi / lo) ** x


def kernel_weights(order: float, length: int) -> np.ndarray:
    """Float gamma-ratio weights by the exact recurrence (benchmark-side)."""
    w = np.empty(length)
    if length:
        w[0] = 1.0
    for lag in range(1, length):
        w[lag] = w[lag - 1] * (lag - 1 + order) / lag
    return w


def scaled_error(u: np.ndarray, ref: np.ndarray, scale: np.ndarray) -> float:
    """max |u - ref| / scale over the common prefix (0 for an empty prefix)."""
    m = min(len(u), len(ref))
    if m == 0:
        return 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.abs(u[:m] - ref[:m]) / np.maximum(scale[:m], 1e-300)
    return float(np.max(e)) if np.all(np.isfinite(e)) else math.inf
