"""Command line front end.

Subcommands: ``solve`` (trajectory CSV + JSON sidecar), ``figures``
(interpolation-sweep CSVs), ``verify`` (identity suite), ``bound``
(fixed-point thresholds), ``laplace`` and ``ml`` (point evaluators).

Exit codes: 0 ok, 1 verification failure, 2 a ValueError (bad configuration)
or a value the library cannot deliver (OverflowError, LibraryError), 3 numeric
overflow of a trajectory (partial output is written and flagged).  All file
output is deterministic: floats are formatted with 17 significant digits and
lines end with LF, so identical configurations produce byte-identical files.

Every subcommand runs ``grid``, imported here, and imports the other modules
it runs in its own body, so a call loads only its own dependency chain.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, GridFn, HilferOrder, LibraryError, _require_finite

if TYPE_CHECKING:
    from .solvers import IvpSpec

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_OVERFLOW = 3


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class ConfigError(ValueError):
    pass


def _nonlinear_registry(name: str, a: float):
    if name == "example45":
        return lambda w, u: (w - a) * u
    raise ConfigError(f"unknown --g registry entry {name!r}")


#: right-hand-side flags (argparse dest -> flag) each kind of solve takes
_RHS_FLAGS = {
    "linear": {"lam": "--lambda"},
    "nonlinear": {"g": "--g", "g_affine": "--g-affine"},
    "nonhomogeneous": {
        "lam": "--lambda", "forcing_csv": "--forcing-csv", "forcing_const": "--forcing-const",
    },
}


def _build_spec(args: argparse.Namespace) -> IvpSpec:
    from .solvers import IvpSpec, Linear, NonHomogeneous, Nonlinear

    order = HilferOrder(args.mu, args.nu)
    kinds = [kind for kind in _RHS_FLAGS if getattr(args, kind)]
    if len(kinds) != 1:
        raise ConfigError(
            "choose exactly one of --linear / --nonlinear / --nonhomogeneous"
        )
    foreign = sorted(
        {flag for flags in _RHS_FLAGS.values() for dest, flag in flags.items()
         if dest not in _RHS_FLAGS[kinds[0]] and getattr(args, dest) is not None}
    )
    if foreign:
        raise ConfigError(f"--{kinds[0]} does not take these flags: {', '.join(foreign)}")
    if args.series and args.nonlinear:
        raise ConfigError("--series needs --linear or --nonhomogeneous")
    if args.linear:
        if args.lam is None:
            raise ConfigError("--linear requires --lambda")
        rhs: Linear | Nonlinear | NonHomogeneous = Linear(args.lam)
    elif args.nonlinear:
        if args.g is not None:
            g = _nonlinear_registry(args.g, args.a)
        elif args.g_affine is not None:
            c0, c1 = args.g_affine
            g = lambda w, u: c0 + c1 * u * (w - args.a)  # noqa: E731
        else:
            raise ConfigError("--nonlinear requires --g or --g-affine")
        rhs = Nonlinear(g)
    else:
        if args.lam is None:
            raise ConfigError("--nonhomogeneous requires --lambda")
        if not np.isfinite(args.a):  # named as IvpSpec names it, before the forcing's Grid
            raise ConfigError(f"a and zeta must be finite: got a={args.a!r}, zeta={args.zeta!r}")
        base = args.a + 1.0 - args.mu
        if args.forcing_csv is not None:
            vals = np.loadtxt(args.forcing_csv, ndmin=1)
        elif args.forcing_const is not None:
            vals = np.full(args.steps, args.forcing_const)
        else:
            raise ConfigError(
                "--nonhomogeneous requires --forcing-csv or --forcing-const"
            )
        rhs = NonHomogeneous(args.lam, GridFn(Grid(base, len(vals)), vals))
    return IvpSpec(args.a, args.steps, order, args.zeta, rhs)


def cmd_solve(args: argparse.Namespace) -> int:
    from .solvers import (
        Linear, NonHomogeneous, defining_equation_residual, residual_scale, solve, solve_linear_series,
    )

    spec = _build_spec(args)
    sol = solve_linear_series(spec) if args.series and args.linear else solve(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["n,x,u"]
    for n in range(sol.values.count):
        x = spec.a + n
        lines.append(f"{n},{_fmt(x)},{_fmt(float(sol.values.values[n]))}")
    _write_lines(out / "solution.csv", lines)

    overflowed = sol.meta.overflow_at is not None
    max_residual = max_relative_residual = None
    if not overflowed:
        res = np.abs(defining_equation_residual(sol, spec).values)
        scale = residual_scale(sol, spec).values
        relative = res / np.maximum(scale, np.finfo(float).tiny)
        max_residual = float(np.max(res, initial=0.0))
        max_relative_residual = float(np.max(relative, initial=0.0))
    meta = {
        "solver": sol.meta.solver,
        "terms_used": sol.meta.terms_used,
        "a": spec.a,
        "steps": spec.steps,
        "mu": spec.order.mu,
        "nu": spec.order.nu,
        "eta": spec.order.eta,
        "zeta": spec.zeta,
        "rhs": type(spec.rhs).__name__,
        "max_residual": max_residual,
        "max_relative_residual": max_relative_residual,
        "overflow_at": sol.meta.overflow_at,
    }
    if isinstance(spec.rhs, (Linear, NonHomogeneous)):
        meta["lambda"] = spec.rhs.lam
    _write_json(out / "solution.json", meta)

    if overflowed:
        print(
            f"warning: trajectory overflowed at index {sol.meta.overflow_at}; "
            "partial output written",
            file=sys.stderr,
        )
        return EXIT_OVERFLOW
    print(f"wrote {out / 'solution.csv'} ({sol.values.count} rows)")
    return EXIT_OK


_FIGURE_NUS = (0.0, 0.25, 0.5, 0.75, 1.0)


def cmd_figures(args: argparse.Namespace) -> int:
    from .solvers import IvpSpec, Linear, solve_linear

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for tag, mu in (("fig1", 0.8), ("fig2", 0.5)):
        columns = []
        for nu in _FIGURE_NUS:
            spec = IvpSpec(0.0, args.steps, HilferOrder(mu, nu), 1.0, Linear(0.1))
            columns.append(solve_linear(spec).values.values)
        header = "n," + ",".join(f"nu_{nu:.2f}" for nu in _FIGURE_NUS)
        lines = [header]
        for n in range(args.steps + 1):
            lines.append(
                f"{n}," + ",".join(_fmt(float(col[n])) for col in columns)
            )
        _write_lines(out / f"{tag}.csv", lines)
        lo = np.minimum(columns[0], columns[-1])
        hi = np.maximum(columns[0], columns[-1])
        for nu, col in zip(_FIGURE_NUS[1:-1], columns[1:-1]):
            if np.any(col < lo - 1e-12) or np.any(col > hi + 1e-12):
                print(
                    f"warning: {tag} nu={nu} leaves the endpoint envelope "
                    "(soft interpolation check)",
                    file=sys.stderr,
                )
        print(f"wrote {out / (tag + '.csv')} ({args.steps + 1} rows)")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_checks

    results = run_checks(args.only, tol_override=args.tol, y=args.y)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{status}  {r.name:36s} max_error={r.max_error:.3e} tol={r.tol:.1e}{detail}")
    payload = [dataclasses.asdict(r) for r in results]
    all_passed = all(r.passed for r in results)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify.json", {"checks": payload, "all_passed": all_passed})
    print(f"{'all checks passed' if all_passed else 'SOME CHECKS FAILED'}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_bound(args: argparse.Namespace) -> int:
    from .stability import existence_report, uniqueness_report

    if args.K is not None:
        rep = uniqueness_report(args.a, args.T, args.mu, args.K)
        kind = "uniqueness (strict)"
    elif args.L_star is not None:
        rep = existence_report(args.a, args.T, args.mu, args.L_star)
        kind = "existence"
    else:
        rep = existence_report(args.a, args.T, args.mu, 0.0)
        kind = "threshold only"
    print(f"bound     = {rep.bound!r}")
    print(f"kind      = {kind}")
    if args.K is not None or args.L_star is not None:
        print(f"supplied  = {rep.supplied!r}")
        print(f"satisfied = {rep.satisfied}")
        print(f"strict    = {rep.strict}")
    return EXIT_OK


def _laplace_test_fn(kind: str, ratio: float, count: int) -> GridFn:
    grid = Grid(0.0, count)
    if kind == "const":
        return GridFn.constant(grid, 1.0)
    if kind == "ramp":
        return GridFn.from_callable(grid, lambda x: x)
    if kind == "geometric":
        return GridFn.from_callable(grid, lambda x: ratio**x)
    raise ConfigError(f"unknown --f-kind {kind!r}")


def cmd_laplace(args: argparse.Namespace) -> int:
    from .transforms import (
        LaplaceCtl, delta_laplace, laplace_of_fractional_sum_check, laplace_of_hilfer_check,
    )

    _require_finite(ratio=args.ratio)  # the contour radius reads it for every kind
    f = _laplace_test_fn(args.f_kind, args.ratio, args.count)
    order_bound = max(1.0 + 1e-9, abs(args.ratio)) + 0.1
    ctl = LaplaceCtl(r=order_bound) if args.tol is None else LaplaceCtl(r=order_bound, tol=args.tol)
    payload = {
        "y": args.y,
        "f_kind": args.f_kind,
        "transform": delta_laplace(f, args.y, ctl).value,
    }
    lhs, rhs = laplace_of_fractional_sum_check(f, args.mu, args.y, ctl)
    payload["fractional_sum_identity"] = {"lhs": lhs, "rhs": rhs, "error": abs(lhs - rhs)}
    lhs, rhs = laplace_of_hilfer_check(
        f, HilferOrder(args.mu, args.nu), args.y, ctl
    )
    payload["hilfer_identity"] = {"lhs": lhs, "rhs": rhs, "error": abs(lhs - rhs)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_ml(args: argparse.Namespace) -> int:
    from .mittag_leffler import MlParams, SeriesCtl, ml_eval

    params = MlParams(mu=args.mu, eta=args.eta, gamma=args.gamma, lam=args.lam)
    ctl = SeriesCtl() if args.tol is None else SeriesCtl(tol=args.tol)
    ev = ml_eval(params, args.z, ctl, bold=args.bold)
    payload = {
        "family": "bold" if args.bold else "plain",
        "mu": args.mu,
        "eta": args.eta,
        "gamma": args.gamma,
        "lambda": args.lam,
        "z": args.z,
        "value": ev.value,
        "terms_used": ev.terms_used,
        "exact_termination": ev.exact,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilfer-dfc",
        description="discrete fractional calculus: solvers, transforms, "
        "identity verification and stability bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an initial value problem")
    p_solve.add_argument("--a", type=float, default=0.0)
    p_solve.add_argument("--steps", type=int, default=30)
    p_solve.add_argument("--mu", type=float, required=True)
    p_solve.add_argument("--nu", type=float, default=0.0)
    p_solve.add_argument("--zeta", type=float, default=1.0)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--linear", action="store_true")
    p_solve.add_argument("--nonlinear", action="store_true")
    p_solve.add_argument("--nonhomogeneous", action="store_true")
    p_solve.add_argument("--g", type=str, default=None, help="registry name, e.g. example45")
    p_solve.add_argument(
        "--g-affine", nargs=2, type=float, default=None, metavar=("C0", "C1"),
        help="g = c0 + c1*u*(x-a)",
    )
    p_solve.add_argument("--forcing-csv", type=str, default=None)
    p_solve.add_argument("--forcing-const", type=float, default=None)
    p_solve.add_argument("--series", action="store_true", help="series route for --linear")
    p_solve.add_argument("--out", type=str, default=".")
    p_solve.set_defaults(fn=cmd_solve)

    p_fig = sub.add_parser("figures", help="emit the interpolation-sweep CSVs")
    p_fig.add_argument("--steps", type=int, default=30)
    p_fig.add_argument("--out", type=str, default=".")
    p_fig.set_defaults(fn=cmd_figures)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--only", type=str, default=None)
    p_verify.add_argument("--y", type=float, default=2.0)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out", type=str, default=".")
    p_verify.set_defaults(fn=cmd_verify)

    p_bound = sub.add_parser("bound", help="fixed-point threshold report")
    p_bound.add_argument("--a", type=float, required=True)
    p_bound.add_argument("--T", type=float, required=True)
    p_bound.add_argument("--mu", type=float, required=True)
    p_bound.add_argument("--K", type=float, default=None)
    p_bound.add_argument("--L-star", dest="L_star", type=float, default=None)
    p_bound.set_defaults(fn=cmd_bound)

    p_lap = sub.add_parser("laplace", help="transform evaluation and identities")
    p_lap.add_argument("--y", type=float, required=True)
    p_lap.add_argument("--mu", type=float, default=0.5)
    p_lap.add_argument("--nu", type=float, default=0.5)
    p_lap.add_argument("--f-kind", type=str, default="const")
    p_lap.add_argument("--ratio", type=float, default=1.2)
    p_lap.add_argument("--count", type=int, default=400)
    p_lap.add_argument("--tol", type=float, default=None)
    p_lap.set_defaults(fn=cmd_laplace)

    p_ml = sub.add_parser("ml", help="discrete Mittag-Leffler evaluation")
    p_ml.add_argument("--mu", type=float, required=True)
    p_ml.add_argument("--eta", type=float, default=1.0)
    p_ml.add_argument("--gamma", type=float, default=1.0)
    p_ml.add_argument("--lambda", dest="lam", type=float, required=True)
    p_ml.add_argument("--z", type=float, required=True)
    p_ml.add_argument("--bold", action="store_true")
    p_ml.add_argument("--tol", type=float, default=None)
    p_ml.set_defaults(fn=cmd_ml)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a ValueError, OverflowError or LibraryError exits 2."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (OverflowError, LibraryError) as exc:
        # the arguments ask for a value the library cannot deliver
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
