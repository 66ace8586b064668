"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every public module-level function of the
``hilfer_dfc`` layers with a timing wrapper, in the defining module and in
every module that imported the name (``solvers.hilfer_difference_fn``,
``stability.solve``, ...), so a call from one layer into another opens a
child span.  Spans are folded into per-function totals as they close
(self time = duration minus the time child spans cover), which
keeps memory flat on runs with millions of calls.  Work counts are taken
from the arguments and results at the same boundaries; they are computed
from sizes, not measured, and repeat exactly for a given op list.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

LAYERS = (
    "grid",
    "operators",
    "mittag_leffler",
    "transforms",
    "solvers",
    "stability",
    "verification",
    "cli",
)

#: inclusive-time groups: a span counts when no enclosing span is in the group
GROUPS = {
    "solvers.residual_s": {("solvers", "defining_equation_residual")},
    "stability.gronwall_s": {
        ("stability", "gronwall_check"),
        ("stability", "gronwall_series"),
        ("stability", "ev_operator"),
    },
    "stability.contraction_s": {("stability", "verify_contraction")},
}

#: functions whose self time carries the solver multiply-adds
MADD_SOLVERS = {
    "solve_linear",
    "solve_nonlinear",
    "solve_nonhomogeneous",
    "apply_summation_operator",
}

_SNAP = 1e-9


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return default


def _causal_madds(n: int) -> int:
    """Multiply-adds of a causal length-n convolution done directly."""
    return n * (n + 1) // 2


def _count(layer, name, args, kwargs, result, counts):
    """Work counts for one returned call (computed from sizes)."""
    if layer == "operators":
        if name == "fractional_sum_fn":
            f = args[0]
            mu = _arg(args, kwargs, 1, "mu")
            if abs(mu) > _SNAP:
                counts["operators.madds"] += _causal_madds(f.count)
        elif name == "fractional_sum":
            f, mu, x = args[0], _arg(args, kwargs, 1, "mu"), _arg(args, kwargs, 2, "x")
            if abs(mu) > _SNAP:
                counts["operators.madds"] += round(x - f.base - mu) + 1
    elif layer == "solvers":
        if name.startswith("solve_"):
            steps = result.values.count - 1
            counts["solvers.steps"] += steps
            if name in MADD_SOLVERS:
                counts["solvers.madds"] += _causal_madds(steps)
        elif name == "apply_summation_operator":
            counts["solvers.madds"] += _causal_madds(result.count - 1)
    elif layer == "mittag_leffler" and name == "ml_eval":
        counts["mittag_leffler.terms"] += result.terms_used
        counts["mittag_leffler.evals"] += 1
        counts["mittag_leffler.exact"] += int(result.exact)
    elif layer == "transforms" and name == "delta_laplace":
        counts["transforms.terms"] += result.terms
    elif layer == "verification" and name == "run_checks":
        counts["verification.checks"] += len(result)


def _operator_points(layer, name, args):
    """Input points of a whole-grid operator call."""
    if layer == "operators" and name.endswith("_fn"):
        return args[0].count
    return 0


def census() -> None:
    """One small call into every layer, run traced at the start of each pass.

    A workload leaves some layers idle (grid-operators never solves), so
    without it those layers would report a self time of exactly 0 on
    every run; this gives each layer a span costing micro- to
    milliseconds, the same on every pass.
    """
    import contextlib
    import io

    import hilfer_dfc as H
    from hilfer_dfc import cli, verification

    order = H.HilferOrder(0.5, 0.5)
    spec = H.IvpSpec(0.0, 3, order, 1.0, H.Linear(0.1))
    H.falling_factorial(3.5, 0.5)
    H.ml_plain(H.MlParams(mu=0.5, lam=0.1), 2.0)
    H.delta_laplace(H.GridFn(H.Grid(0.0, 40), [1.0] * 40), 2.0)
    H.defining_equation_residual(H.solve_linear(spec), spec)
    H.gronwall_series(1.0, H.GridFn.constant(H.Grid(0.0, 4), 0.1), order, 3.0)
    H.verify_contraction(spec, 0.1, trials=1)
    verification.run_checks("desk-scenario-threshold")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["bound", "--a", "0", "--T", "3", "--mu", "0.5"])


class Tracer:
    """Wraps the package's public functions; aggregates spans while installed."""

    def __init__(self) -> None:
        self.self_time = defaultdict(float)  # (layer, name) -> self seconds
        self.counts = defaultdict(int)
        self.group_s = defaultdict(float)  # GROUPS name -> inclusive seconds
        self._stack: list[list[float]] = []  # [seconds spent in child spans]
        self._layer_depth = defaultdict(int)
        self._group_depth = defaultdict(int)
        self._plan: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._plan = self._build_plan()
        for mod, name, _, wrapper in self._plan:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._plan:
            setattr(mod, name, original)

    def _build_plan(self) -> list[tuple]:
        """(module, name, original, wrapper) for every binding of a public function."""
        modules = {layer: importlib.import_module(f"hilfer_dfc.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        plan = []
        for mod in (*modules.values(), importlib.import_module("hilfer_dfc")):
            for name, obj in vars(mod).items():
                if id(obj) in wrappers:
                    plan.append((mod, name, obj, wrappers[id(obj)]))
        return plan

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        groups = [g for g, members in GROUPS.items() if key in members]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            outer_in_layer = self._layer_depth[layer] == 0
            outer_groups = [g for g in groups if self._group_depth[g] == 0]
            self._layer_depth[layer] += 1
            for g in groups:
                self._group_depth[g] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._layer_depth[layer] -= 1
                for g in groups:
                    self._group_depth[g] -= 1
                self.self_time[key] += elapsed - frame[0]
                for g in outer_groups:
                    self.group_s[g] += elapsed
            _count(layer, name, args, kwargs, result, self.counts)
            if outer_in_layer:
                self.counts["operators.points"] += _operator_points(layer, name, args)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__doc__ = fn.__doc__
        return span

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures, per pass over the op list, in the declared names."""
        c = self.counts
        out: dict[str, float] = {}
        by_layer = defaultdict(float)
        for (layer, _), t in self.self_time.items():
            by_layer[layer] += t
        for layer in LAYERS:
            out[f"{layer}.self_s"] = by_layer[layer] / passes
        for name in (
            "solvers.steps",
            "solvers.madds",
            "operators.points",
            "operators.madds",
            "mittag_leffler.terms",
            "transforms.terms",
            "verification.checks",
        ):
            out[name] = c[name] // passes  # every pass does the same work
        for group in GROUPS:
            out[group] = self.group_s[group] / passes
        madd_self = sum(
            t for (lay, name), t in self.self_time.items() if lay == "solvers" and name in MADD_SOLVERS
        )
        out["solvers.madd_rate"] = c["solvers.madds"] / madd_self if madd_self else 0.0
        op_self = by_layer["operators"]
        out["operators.madd_rate"] = c["operators.madds"] / op_self if op_self else 0.0
        evals = c["mittag_leffler.evals"]
        out["mittag_leffler.exact_frac"] = c["mittag_leffler.exact"] / evals if evals else 0.0
        return out
