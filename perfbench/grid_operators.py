"""grid-operators: whole-grid operator applications on seeded GridFns.

One op applies one of ``fractional_sum_fn`` / ``rl_difference_fn`` /
``caputo_difference_fn`` / ``hilfer_difference_fn`` to a seeded grid
function whose length is log-uniform in [1e2, 2e4], then runs one
identity check on the output through the library:

* ``semigroup``: sum of order nu2 after the order-mu sum equals the
  order-(mu+nu2) sum;
* ``left-inverse``: the two-parameter difference undoes the order-mu sum
  of a function vanishing at its base point;
* ``composition``: the order-mu sum of the two-parameter difference equals
  the order-eta sum of the differenced inner sum;
* ``endpoint``: nu = 0 / nu = 1 reproduce the Riemann-Liouville / Caputo
  differences bit for bit;
* ``laplace``: the delta Laplace identity of the sum or of the difference.

The op's time covers the application and the identity's library calls;
comparing the two sides happens outside it.  The short grids keep the
direct convolution timed next to the long ones.
"""

from __future__ import annotations

import numpy as np

import hilfer_dfc as H
from common import TOL, Op, Outcome, log_range, stratified
from yardstick import INTERP, VECTOR

SLOTS = 32
N_LO, N_HI = 100, 20000
OPERATORS = ("sum", "rl", "caputo", "hilfer")
IDENTITIES = {
    "sum": ("semigroup", "left-inverse", "laplace"),
    "rl": ("endpoint", "laplace"),
    "caputo": ("endpoint", "laplace"),
    "hilfer": ("composition", "laplace"),
}
LAPLACE_Y = 2.0
#: grid length at which a direct convolution costs about as much as the
#: interpreter work around it (about 0.5 ms each on a 4 GMadd/s core)
N_HALF = 1500
TRACE_OPS = 4 * SLOTS


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
    if lhs.shape != rhs.shape:
        return np.inf
    scale = max(float(np.max(np.abs(rhs), initial=0.0)), float(np.max(np.abs(lhs), initial=0.0)), 1e-300)
    return float(np.max(np.abs(lhs - rhs), initial=0.0)) / scale


def _apply(kind: str, f, order):
    if kind == "sum":
        return H.fractional_sum_fn(f, order.mu)
    if kind == "rl":
        return H.rl_difference_fn(f, order.mu)
    if kind == "caputo":
        return H.caputo_difference_fn(f, order.mu)
    return H.hilfer_difference_fn(f, order)


def _run(kind: str, identity: str, f, order, nu2: float):
    out = _apply(kind, f, order)
    mu = order.mu
    if identity == "semigroup":
        return out, H.fractional_sum_fn(out, nu2).values, H.fractional_sum_fn(f, mu + nu2).values
    if identity == "left-inverse":
        # the output lives on base+1 and must give back f from offset 1 on
        return out, H.hilfer_difference_fn(out, order).values, f.values[1:]
    if identity == "composition":
        lhs = H.fractional_sum_fn(out, mu)
        inner = H.fractional_sum_fn(f, order.inner_sum_order)
        rhs = H.fractional_sum_fn(H.forward_difference_fn(inner), order.eta)
        return out, lhs.values, rhs.values
    if identity == "endpoint":
        if kind != "hilfer":
            return out, out.values, H.hilfer_difference_fn(f, _edge(kind, order)).values
        edge = H.rl_difference_fn if order.nu == 0.0 else H.caputo_difference_fn
        return out, out.values, edge(f, mu).values
    # laplace
    if kind == "sum":
        lhs, rhs = H.laplace_of_fractional_sum_check(f, mu, LAPLACE_Y)
    else:
        lhs, rhs = H.laplace_of_hilfer_check(f, _edge(kind, order), LAPLACE_Y)
    return out, np.array([lhs]), np.array([rhs])


def _edge(kind: str, order):
    """The two-parameter order an operator kind reduces to."""
    if kind == "rl":
        return H.HilferOrder(order.mu, 0.0)
    if kind == "caputo":
        return H.HilferOrder(order.mu, 1.0)
    return order


def _check(identity: str, out) -> Outcome:
    o = Outcome()
    if isinstance(out, Exception):
        o.fail(f"{identity}:{type(out).__name__}")
        return o
    result, lhs, rhs = out
    if not np.all(np.isfinite(result.values)):
        o.fail(f"{identity}:non-finite")
    # ROADMAP: the nu = 0 / nu = 1 edges stay bit-exact with RL / Caputo
    o.error(_rel(lhs, rhs), 0.0 if identity == "endpoint" else TOL, f"{identity}:error")
    return o


class GridOperators:
    name = "grid-operators"
    # short grids are interpreter-bound and long ones convolution-bound,
    # so each op blends the two yardsticks by its length (``N_HALF``)
    yardsticks = (INTERP, VECTOR)
    trace_ops = TRACE_OPS
    tail_percentile = 98  # ten or more samples above it in a 30 s run (16+ passes)

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        # 13 is odd, so each operator (slot mod 4) gets every fourth size
        # stratum, and consecutive slots alternate between short and long
        strata = [(13 * i) % SLOTS for i in range(SLOTS)]
        sizes = log_range(N_LO, N_HI, stratified(rng, strata, SLOTS, width=0.25))
        self.ops_spec = []
        for i in range(SLOTS):
            # kind, nu edge and identity follow the slot, so each seed does
            # the same number of convolutions of about the same lengths
            kind = OPERATORS[i % 4]
            n = int(round(sizes[i]))
            mu = float(rng.uniform(0.1, 0.9))
            nu = (0.0, 1.0, None, None)[(i // 4) % 4]
            nu = float(rng.uniform(0.0, 1.0)) if nu is None else nu
            choices = IDENTITIES[kind]
            if kind == "hilfer" and nu in (0.0, 1.0):
                choices += ("endpoint",)
            identity = choices[(i // 4) % len(choices)]
            base = float(rng.choice([0.0, 0.5, 3.25]))
            values = rng.uniform(-1.0, 1.0, n)
            if identity == "left-inverse":
                values[0] = 0.0
            self.ops_spec.append((kind, identity, n, mu, nu, base, values, float(rng.uniform(0.05, 0.9))))

    def cycle(self) -> list[Op]:
        ops = []
        for slot, (kind, identity, n, mu, nu, base, values, nu2) in enumerate(self.ops_spec):
            order = H.HilferOrder(mu, nu)
            f = H.GridFn(H.Grid(base, n), values)
            run = lambda k=kind, i=identity, f=f, o=order, v=nu2: _run(k, i, f, o, v)  # noqa: E731
            vector = n * n / (n * n + N_HALF * N_HALF)
            ops.append(
                Op(slot, f"{kind}:{identity}", run, lambda out, i=identity: _check(i, out), (1.0 - vector, vector))
            )
        return ops

    def prepare(self, ops: list[Op]) -> None:
        pass

    def close(self) -> None:
        pass

