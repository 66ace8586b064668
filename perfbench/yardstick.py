"""Machine-speed yardsticks: fixed computations that call no package code.

The cores of a shared host change speed with their neighbours' load: on
a 2-vCPU host a fixed 2 ms pure-Python loop ran anywhere from 1.6 to
2.9 ms, and its median over half a minute drifted by up to 1.6x within
a few minutes.
Every op time moves by the same factor, so each op is timed between two
runs of a yardstick of the same kind of work and reported rescaled to
the yardstick's nominal time:

    scaled = elapsed * nominal_s / mean(yardstick before, yardstick after)

That is the op's time on a core running at the yardstick's nominal
speed.  The yardsticks use only the interpreter and numpy, never
``hilfer_dfc``, so a change to the program moves the scaled times and a
change in the host's speed does not.  Raw times are kept in ``detail``.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

_W = [1.0 / (i + 1) for i in range(64)]
_A = np.linspace(-1.0, 1.0, 6000)
_B = np.linspace(1.0, 2.0, 6000)


def _interp() -> float:
    # what the solvers' stepping does: calls, list indexing, float madds
    f = lambda j, u: -0.5 * u  # noqa: E731
    acc = 0.0
    for _ in range(300):
        for j in range(64):
            acc += _W[j] * f(j, acc * 1e-9)
    return acc


def _vector() -> float:
    # what a long whole-grid operator does: one direct convolution
    return float(np.convolve(_A, _B)[-1])


def _spawn() -> None:
    # what a CLI call does first: start an interpreter and import numpy
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


class Yardstick:
    """A timed fixed computation and its nominal time."""

    def __init__(self, name: str, work, nominal_s: float) -> None:
        self.name, self.work, self.nominal_s = name, work, nominal_s

    def __call__(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start



def scale_factor(yardsticks, shares, before, after) -> float:
    """Nominal over measured speed around one op.

    Each yardstick's factor is its nominal time over the mean of its runs
    before and after the op; ``shares`` weighs them geometrically by the
    op's estimated share of each kind of work.
    """
    return math.prod(
        (y.nominal_s / (0.5 * (b + a))) ** share
        for y, share, b, a in zip(yardsticks, shares, before, after)
    )


INTERP = Yardstick("interp", _interp, 2.0e-3)
VECTOR = Yardstick("vector", _vector, 7.0e-3)
SPAWN = Yardstick("spawn", _spawn, 0.17)
