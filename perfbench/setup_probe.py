"""One fresh-interpreter set-up: import the package, then warm a workload.

Run as ``python3 perfbench/setup_probe.py <workload> <src-dir>``; prints
``{"import_s": ..., "setup_s": ...}`` timed inside the interpreter, so
interpreter start-up (not the program's) is left out.  ``warm_up`` is
also what the benchmark process runs before its timed loop.  This module
imports nothing but the package and numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def warm_up(workload: str) -> None:
    """Touch every path the workload times once, at small or first-call sizes."""
    import numpy as np

    import hilfer_dfc as H

    if workload == "ivp-horizon":
        order = H.HilferOrder(0.6, 0.5)
        forcing = H.GridFn(H.Grid(0.4, 40), np.full(40, 0.1))
        for rhs in (
            H.Linear(0.3),
            H.Nonlinear(lambda w, u: -0.3 * u),
            H.NonHomogeneous(0.3, forcing),
        ):
            spec = H.IvpSpec(0.0, 40, order, 1.0, rhs)
            sol = H.solve(spec)
            H.defining_equation_residual(sol, spec)
            H.initial_condition_value(sol, spec)
        spec = H.IvpSpec(0.0, 20, order, 1.0, H.Linear(0.3))
        sol = H.solve_linear_series(spec)
        v = H.GridFn.constant(H.Grid(0.0, 21), 0.3)
        H.gronwall_check(sol.values, 1.0, v, order)
        H.ulam_experiment(spec, 0.3, zeta_n=1.01)
        H.verify_contraction(spec, 0.3, trials=1)
    elif workload == "grid-operators":
        # the first long convolution can take ten times a warm one
        H.fractional_sum_fn(H.GridFn(H.Grid(0.0, 20000), np.linspace(-1.0, 1.0, 20000)), 0.6)
        f = H.GridFn(H.Grid(0.0, 2000), np.linspace(-1.0, 1.0, 2000))
        order = H.HilferOrder(0.6, 0.5)
        H.rl_difference_fn(f, 0.6)
        H.caputo_difference_fn(f, 0.6)
        H.hilfer_difference_fn(f, order)
        H.laplace_of_hilfer_check(f, order, 2.0)
    elif workload == "cli-desk":
        from hilfer_dfc import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["bound", "--a", "0.3", "--T", "9.3", "--mu", "0.7"])
            cli.main(["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "3.0"])
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    workload, src = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import hilfer_dfc  # noqa: F401

    t1 = time.perf_counter()
    warm_up(workload)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
