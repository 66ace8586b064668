"""cli-desk: fresh-interpreter ``hilfer-dfc`` invocations of desk-size commands.

One op is one ``python3 -m hilfer_dfc.cli <argv>`` process, so import
cost is part of every op.  The argv mix is a seeded pool with one command
kind per slot: ``verify`` (whole suite and ``--only``), ``solve`` (each
right-hand-side kind, with and without ``--series``), ``figures``, ``ml``
(including a bad-configuration call), ``laplace`` and ``bound``; steps
stay at or below 400.  Each op checks the exit code against the
documented 0/1/2/3, that every written file and the standard output are
byte-identical to the first run of the same argv, and the values against
50-digit references or closed forms.

The traced run replays the same argv in-process through
``hilfer_dfc.cli.main`` (output captured), so the layers below the CLI
get spans.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as R
from common import TOL, Op, Outcome, log_range, scaled_error
from yardstick import SPAWN

SLOT_KINDS = (
    "verify",
    "solve-linear",
    "ml",
    "solve-series-neg",
    "laplace-const",
    "figures",
    "bound",
    "solve-nonlinear",
    "verify-only",
    "laplace-ramp",
    "solve-forced",
    "ml-bad",
    "solve-series-pos",
    "laplace-geometric",
)
FIGURE_ORDERS = ((0.8, (0.0, 0.25, 0.5, 0.75, 1.0)), (0.5, (0.0, 0.25, 0.5, 0.75, 1.0)))
VERIFY_SUBSETS = ("laplace", "composition", "solver", "gronwall", "ulam", "ml-", "power", "endpoint", "left")
TRACE_OPS = 4 * len(SLOT_KINDS)
SERIES_KINDS = {"solve-series-neg", "solve-series-pos", "solve-forced", "ml"}


def _r(x: float) -> str:
    return repr(float(x))


class Call:
    """One argv of the pool and what its outputs must be."""

    def __init__(self, slot: int, kind: str, argv: list[str], params: dict, out: Path | None):
        self.slot, self.kind, self.argv, self.params, self.out = slot, kind, argv, params, out
        self.expected_exit = 2 if kind == "ml-bad" else 0
        self.ref = None
        self.baseline = None


def _draw(slot: int, kind: str, rng: np.random.Generator, work: Path) -> Call:
    out = work / f"slot{slot:02d}"
    if kind in ("verify", "verify-only"):
        argv = ["verify", "--out", str(out)]
        if kind == "verify":
            argv += ["--y", _r(rng.choice([1.5, 2.0, 3.0]))]
        else:
            argv += ["--only", str(rng.choice(VERIFY_SUBSETS))]
        return Call(slot, kind, argv, {}, out)
    if kind.startswith("solve"):
        lam = {
            "solve-series-neg": rng.uniform(-0.95, -0.5),
            "solve-series-pos": rng.uniform(0.05, 0.95),
            "solve-forced": rng.uniform(0.05, 0.95),
        }.get(kind, rng.uniform(-0.95, 0.95))
        lo = 150 if kind == "solve-series-neg" else 20
        steps = int(round(log_range(lo, 400, rng.uniform(0.0, 1.0))))
        mu = rng.uniform(0.15, 0.9)
        nu = float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 1.0)]))
        zeta = rng.uniform(0.5, 2.0)
        a = float(rng.choice([0.0, 0.3]))
        p = {"lam": float(lam), "mu": mu, "nu": nu, "zeta": zeta, "a": a, "steps": steps}
        argv = ["solve", "--mu", _r(mu), "--nu", _r(nu), "--zeta", _r(zeta), "--a", _r(a), "--steps", str(steps)]
        if kind == "solve-nonlinear":
            if rng.uniform() < 0.5:
                argv += ["--nonlinear", "--g", "example45"]
                p["g"] = (0.0, 1.0)
            else:
                # c1 < 0: with c1 > 0 the solution changes sign every step
                # and loses ~1e11 in conditioning (longdouble gains the same
                # 3 digits over float64), so a forward-error check would
                # test the problem, not the program
                c0, c1 = rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.0)
                argv += ["--nonlinear", "--g-affine", _r(c0), _r(c1)]
                p["g"] = (c0, c1)
        elif kind == "solve-forced":
            p["forcing"] = rng.uniform(-0.5, 0.5)
            argv += ["--nonhomogeneous", "--lambda", _r(lam), "--forcing-const", _r(p["forcing"])]
        else:
            argv += ["--linear", "--lambda", _r(lam)]
            if kind.startswith("solve-series"):
                argv.append("--series")
        return Call(slot, kind, argv + ["--out", str(out)], p, out)
    if kind == "figures":
        steps = int(rng.integers(10, 101))
        return Call(slot, kind, ["figures", "--steps", str(steps), "--out", str(out)], {"steps": steps}, out)
    if kind in ("ml", "ml-bad"):
        mu, eta, gamma = rng.uniform(0.2, 0.95), rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.5)
        lam = rng.uniform(0.05, 0.95) if kind == "ml" else rng.uniform(1.0, 1.5)
        n = int(rng.integers(0, 401))
        bold = bool(rng.uniform() < 0.5)
        z = float(n) if bold else n + eta - 1.0
        p = {"mu": mu, "eta": eta, "gamma": gamma, "lam": lam, "z": z, "bold": bold}
        argv = ["ml", "--mu", _r(mu), "--eta", _r(eta), "--gamma", _r(gamma), "--lambda", _r(lam), "--z", _r(z)]
        return Call(slot, kind, argv + (["--bold"] if bold else []), p, None)
    if kind.startswith("laplace"):
        f_kind = kind.split("-")[1]
        # the truncation error, and so err_digits, follows r/|1+y|: keep it narrow
        ratio, y = rng.uniform(1.2, 1.25), rng.uniform(2.0, 2.25)
        mu, nu = rng.uniform(0.2, 0.9), rng.uniform(0.0, 1.0)
        p = {"f_kind": f_kind, "ratio": ratio, "y": y}
        argv = ["laplace", "--y", _r(y), "--mu", _r(mu), "--nu", _r(nu), "--f-kind", f_kind, "--ratio", _r(ratio)]
        return Call(slot, kind, argv, p, None)
    # bound
    a = float(rng.choice([0.0, 0.3, 1.0]))
    steps, mu = int(rng.integers(2, 401)), rng.uniform(0.1, 0.9)
    p = {"a": a, "T": a + steps, "mu": mu}
    argv = ["bound", "--a", _r(a), "--T", _r(a + steps), "--mu", _r(mu)]
    which = rng.integers(0, 3)
    if which == 1:
        p["K"] = rng.uniform(0.0, 0.2)
        argv += ["--K", _r(p["K"])]
    elif which == 2:
        p["L_star"] = rng.uniform(0.0, 0.2)
        argv += ["--L-star", _r(p["L_star"])]
    return Call(slot, kind, argv, p, None)


def _prepare_ref(call: Call):
    p = call.params
    if call.kind.startswith("solve"):
        eta = p["mu"] + p["nu"] - p["mu"] * p["nu"]
        if "g" in p:
            c0, c1 = p["g"]
            g = lambda j, u: c0 + c1 * u * (j - 1)  # noqa: E731  (w - a = j - 1)
            return R.trajectory(p["mu"], eta, p["zeta"], 0.0, p["steps"], g=g)
        forcing = [p["forcing"]] * p["steps"] if "forcing" in p else None
        return R.trajectory(p["mu"], eta, p["zeta"], p["lam"], p["steps"], forcing=forcing)
    if call.kind == "figures":
        refs = {}
        for mu, nus in FIGURE_ORDERS:
            for nu in nus:
                refs[(mu, nu)] = R.trajectory(mu, mu + nu - mu * nu, 1.0, 0.1, p["steps"])
        return refs
    if call.kind == "ml":
        return R.ml_value(p["mu"], p["eta"], p["gamma"], p["lam"], p["z"], p["bold"])
    if call.kind == "bound":
        return R.existence_bound(p["a"], p["T"], p["mu"])
    if call.kind.startswith("laplace"):
        y, ratio = p["y"], p["ratio"]
        return {"const": 1.0 / y, "ramp": 1.0 / y**2, "geometric": 1.0 / (1.0 + y - ratio)}[p["f_kind"]]
    return None


def _read_outputs(call: Call) -> dict[str, bytes]:
    if call.out is None or not call.out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(call.out.iterdir()) if p.is_file()}


def _csv_column(data: bytes, column: str) -> np.ndarray:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return np.array([float(r[column]) for r in rows])


def _check_values(call: Call, files: dict, stdout: str, o: Outcome) -> None:
    kind, p, ref = call.kind, call.params, call.ref
    cancel = "4a" if kind in SERIES_KINDS and p.get("lam", 1.0) < 0 else None
    if kind.startswith("verify"):
        report = json.loads(files["verify.json"])
        if not report["all_passed"] or not report["checks"]:
            o.fail(f"{kind}:check-failed")
    elif kind.startswith("solve"):
        ref_u, scale, ref_ov = ref
        u = _csv_column(files["solution.csv"], "u")
        meta = json.loads(files["solution.json"])
        if meta["overflow_at"] != ref_ov:
            o.fail(f"{kind}:overflow-index")
        o.error(scaled_error(u, ref_u, scale), TOL, f"{kind}:error", cancel)
    elif kind == "figures":
        for tag, (mu, nus) in zip(("fig1", "fig2"), FIGURE_ORDERS):
            data = files[f"{tag}.csv"]
            for nu in nus:
                ref_u, scale, _ = ref[(mu, nu)]
                o.error(scaled_error(_csv_column(data, f"nu_{nu:.2f}"), ref_u, scale), TOL, f"{kind}:error")
    elif kind == "ml":
        value = json.loads(stdout)["value"]
        exact, _ = ref
        o.error(abs(value - exact) / max(abs(exact), 1e-300), TOL, f"{kind}:error", cancel)
    elif kind.startswith("laplace"):
        # the ramp starts at f(0) = 0, which the tail bound cannot see past
        zero_start = "laplace-zero-prefix" if p["f_kind"] == "ramp" else None
        payload = json.loads(stdout)
        o.error(abs(payload["transform"] - ref) / abs(ref), TOL, f"{kind}:error", zero_start)
        for key in ("fractional_sum_identity", "hilfer_identity"):
            ident = payload[key]
            o.error(ident["error"] / max(1.0, abs(ident["lhs"])), TOL, f"{kind}:{key}", zero_start)
    elif kind == "bound":
        value = float(re.search(r"^bound\s+=\s+(\S+)$", stdout, re.M).group(1))
        o.error(abs(value - ref) / ref, TOL, f"{kind}:error")
        limit = p.get("K", p.get("L_star"))
        if limit is not None:
            satisfied = re.search(r"^satisfied\s+=\s+(\S+)$", stdout, re.M).group(1) == "True"
            if satisfied != (limit < ref if "K" in p else limit <= ref):
                o.fail(f"{kind}:satisfied")


class CliDesk:
    name = "cli-desk"
    yardsticks = (SPAWN,)  # every op starts an interpreter and imports numpy
    trace_ops = TRACE_OPS
    tail_percentile = 75  # ten or more samples above it in a 30 s run

    def __init__(self, seed: int, root: Path, src: Path, inprocess: bool) -> None:
        self.root, self.src = root, src
        self.work = root / ".perfbench_work"
        rng = np.random.default_rng([seed, 3])
        self.calls = [_draw(i, kind, rng, self.work) for i, kind in enumerate(SLOT_KINDS)]
        self.inprocess = inprocess  # replay through cli.main instead of a process
        self.env = {**os.environ, "PYTHONPATH": str(src)}

    def cycle(self) -> list[Op]:
        return [
            Op(c.slot, c.kind, lambda c=c: self._invoke(c), lambda out, c=c: self._check(c, out))
            for c in self.calls
        ]

    def prepare(self, ops: list[Op]) -> None:
        for call in self.calls:
            call.ref = _prepare_ref(call)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _invoke(self, call: Call):
        if call.out is not None:
            shutil.rmtree(call.out, ignore_errors=True)
        if self.inprocess:
            return self._invoke_inprocess(call)
        proc = subprocess.run(
            [sys.executable, "-m", "hilfer_dfc.cli", *call.argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _invoke_inprocess(call: Call):
        from hilfer_dfc import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # what an uncaught error exits with
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        return code, stdout.getvalue(), stderr.getvalue()

    def _check(self, call: Call, out) -> Outcome:
        o = Outcome()
        if isinstance(out, Exception):
            o.fail(f"{call.kind}:{type(out).__name__}")
            return o
        code, stdout, stderr = out
        files = _read_outputs(call)
        o.bytes_written = sum(len(b) for b in files.values())
        expected = call.expected_exit
        if call.kind.startswith("solve") and call.ref[2] is not None:
            expected = 3  # documented: overflow writes partial output
        if code != expected:
            if code == 1 and "SeriesConvergenceError" in stderr:
                known = "4b"  # the error escapes as a traceback
            elif code == 3 and expected == 0:
                known = "4c"  # overflow reported where the reference has none
            else:
                known = None
            o.fail(f"{call.kind}:exit-{code}", known)
            return o
        snapshot = (files, stdout)
        if call.baseline is None:
            call.baseline = snapshot
        elif snapshot != call.baseline:
            o.fail(f"{call.kind}:bytes-differ")
        if code == 0 or code == 3:
            try:
                _check_values(call, files, stdout, o)
            except (KeyError, ValueError, AttributeError) as exc:
                o.fail(f"{call.kind}:unreadable-{type(exc).__name__}")
        return o

