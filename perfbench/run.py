"""Layered benchmark for hilfer-dfc.

    python3 perfbench/run.py --workload <ivp-horizon|grid-operators|cli-desk>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src/``.
One caller runs a closed loop: the next op starts only after the previous
one has finished and been checked, with BLAS/OpenMP capped at one thread.
``--trace 0`` times the loop for about ``--seconds``, each op between two
runs of a machine-speed yardstick (``yardstick.py``), and prints the
end-to-end metrics rescaled to the yardstick's nominal speed;
``--trace 1`` repeats a fixed prefix of the seed's op list for
``--seconds``, each op once untraced and once with every public function
of the package wrapped, and prints the per-layer metrics per pass over
that prefix.  The last line of standard output is the JSON result; the
lines before it give each metric by name and unit, the environment and
the failure tally.
"""

from __future__ import annotations

import os

THREAD_CAP = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from common import KNOWN_DEFECTS  # noqa: E402
from tracer import Tracer, census  # noqa: E402
from yardstick import SPAWN, scale_factor  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("ivp-horizon", "grid-operators", "cli-desk")
SETUP_REPEATS = 9
SHORT_OP_S = 0.05
SHORT_OP_REPEATS = 5
ERR_FLOOR = 1e-17  # an exact match reads as 17 digits

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "err_digits": "digits",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "solvers.self_s": "s",
    "solvers.steps": "count",
    "solvers.madds": "count",
    "solvers.madd_rate": "1/s",
    "solvers.residual_s": "s",
    "stability.self_s": "s",
    "stability.gronwall_s": "s",
    "stability.contraction_s": "s",
    "operators.self_s": "s",
    "operators.points": "count",
    "operators.madds": "count",
    "operators.madd_rate": "1/s",
    "mittag_leffler.self_s": "s",
    "mittag_leffler.terms": "count",
    "mittag_leffler.exact_frac": "frac",
    "transforms.self_s": "s",
    "transforms.terms": "count",
    "grid.self_s": "s",
    "verification.checks": "count",
    "verification.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
}


def _env(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    caches = {}
    try:
        listing = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        listing = ""
    for line in listing.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0].endswith("CACHE_SIZE") and fields[1].isdigit():
            caches[fields[0].lower()] = int(fields[1])

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_cap": int(THREAD_CAP),
    }


def _fresh_setups(workload: str) -> tuple[float, float, float]:
    """Medians over fresh interpreters of (scaled setup_s, setup_s, import_s).

    The spawn yardstick runs before the first probe and after each one,
    so each probe's set-up is scaled like a CLI op.
    """
    scaled, setups, imports = [], [], []
    before = SPAWN()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        after = SPAWN()
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(rec["setup_s"] * scale_factor((SPAWN,), (1.0,), (before,), (after,)))
        setups.append(rec["setup_s"])
        imports.append(rec["import_s"])
        before = after
    return statistics.median(scaled), statistics.median(setups), statistics.median(imports)


def _make(workload: str, seed: int, traced: bool):
    if workload == "ivp-horizon":
        from ivp_horizon import IvpHorizon

        return IvpHorizon(seed)
    if workload == "grid-operators":
        from grid_operators import GridOperators

        return GridOperators(seed)
    from cli_desk import CliDesk

    return CliDesk(seed, ROOT, SRC, inprocess=traced)


def _execute(op, repeat_short: bool = False):
    """Run one op; its time covers the program's work, its check does not.

    With ``repeat_short`` an op that finishes in under ``SHORT_OP_S`` is
    run again back to back, up to ``SHORT_OP_REPEATS`` times, and its
    fastest run is its time: a 1 ms op timed once is mostly timer and
    scheduler noise.  The last run's output is the one checked.
    """
    best, spent = math.inf, 0.0
    for _ in range(SHORT_OP_REPEATS if repeat_short else 1):
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the op's failure is its outcome
            out = exc
        elapsed = time.perf_counter() - start
        best, spent = min(best, elapsed), spent + elapsed
        if spent >= SHORT_OP_S:
            break
    return best, op.check(out)


def _timed_loop(ops, yardsticks, seconds: float) -> list:
    """Whole passes over ``ops`` for about ``seconds``, at least one.

    The workload's yardsticks run before the first op and after every
    op, so each op is timed between two yardstick runs, and is recorded
    as ``(op, scaled_s, raw_s, outcome)``.  A new pass starts only while
    more than half a pass is left of ``seconds``, so a run ends within
    half a pass of ``seconds`` and every op runs equally often.
    """
    records = []
    start = time.perf_counter()
    before = [y() for y in yardsticks]
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            elapsed, outcome = _execute(op, repeat_short=True)
            after = [y() for y in yardsticks]
            records.append((op, elapsed * scale_factor(yardsticks, op.shares, before, after), elapsed, outcome))
            before = after
        now = time.perf_counter()
        if now - start + 0.5 * (now - pass_start) >= seconds:
            return records


def _traced_passes(ops, tracer, seconds: float) -> tuple[list, float, float, int]:
    """Passes over ``ops`` until ``seconds`` have gone, at least one.

    Each pass starts with a traced ``census`` of every layer.  Each op
    runs once untraced and once traced, alternating which goes
    first, so the overhead compares the same work under the same
    conditions.  Only traced runs become records, as
    ``(op, elapsed, elapsed, outcome)``.
    """
    records, untraced_s, traced_s, passes = [], 0.0, 0.0, 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        tracer.install()
        try:
            census()
        finally:
            tracer.uninstall()
        for i, op in enumerate(ops):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    elapsed, outcome = _execute(op)
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    traced_s += elapsed
                    records.append((op, elapsed, elapsed, outcome))
                else:
                    untraced_s += elapsed
        passes += 1
    return records, untraced_s, traced_s, passes


def _per_op(records) -> dict:
    """Each distinct op of ``records`` once: ``(op, scaled_s, raw_s, outcome)``.

    An op's times are the medians over its repetitions; its outcome is
    that of its first failing repetition, or of its last one when all
    passed.  Every op's outcome is fixed by the seed, so the failure
    count is too, however many passes the clock allowed.
    """
    runs: dict[int, list] = {}
    for rec in records:
        runs.setdefault(rec[0].slot, []).append(rec)
    out = {}
    for slot, recs in runs.items():
        failing = [r[3] for r in recs if not r[3].ok]
        outcome = failing[0] if failing else recs[-1][3]
        out[slot] = (
            recs[0][0],
            statistics.median(r[1] for r in recs),
            statistics.median(r[2] for r in recs),
            outcome,
        )
    return out


def _tail(times: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``times`` and the samples above it."""
    ordered = sorted(times)
    value = ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]
    return value, sum(t > value for t in ordered)


def _summarise(per_op: dict) -> dict:
    tally = Counter()
    known = {}
    failed = 0
    unexplained = 0
    worst = 0.0
    for _, _, _, outcome in per_op.values():
        if outcome.ok:
            worst = max(worst, outcome.err)
            continue
        failed += 1
        unexplained += bool(outcome.unexplained)
        for reason in outcome.failures:
            tally[reason] += 1
            if reason in outcome.known:
                known[reason] = outcome.known[reason]
    return {
        "attempted": len(per_op),
        "failed": failed,
        "unexplained": unexplained,
        "worst_err": worst,
        "tally": dict(sorted(tally.items())),
        "known_defects": {r: KNOWN_DEFECTS[k] for r, k in known.items()},
    }


def _timing(times: list[float], percentile: float) -> dict:
    tail, _ = _tail(times, percentile)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
    }


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-desk" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _print_metrics(metrics: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        print(f"  {name:28s} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hilfer_dfc" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, setup_raw_s, import_s = _fresh_setups(args.workload)
    from setup_probe import warm_up

    warm_up(args.workload)
    wl = _make(args.workload, args.seed, bool(args.trace))
    try:
        ops = wl.cycle()
        if args.trace:
            ops = (ops * math.ceil(wl.trace_ops / len(ops)))[: wl.trace_ops]
        wl.prepare(ops)

        if not args.trace:
            records = _timed_loop(ops, wl.yardsticks, args.seconds)
            per_op = _per_op(records)
            summary = _summarise(per_op)
            scaled = [r[1] for r in records]
            _, beyond = _tail(scaled, wl.tail_percentile)
            metrics = {
                "setup_s": setup_s,
                **_timing(scaled, wl.tail_percentile),
                "err_digits": -math.log10(max(summary["worst_err"], ERR_FLOOR)),
                "pass_frac": 1.0 - summary["failed"] / summary["attempted"],
                "peak_rss_mb": _peak_rss_mb(args.workload),
            }
            summary["op_tail"] = {"percentile": wl.tail_percentile, "samples": len(scaled), "beyond": beyond}
            summary["unscaled"] = {"setup_s": setup_raw_s, **_timing([r[2] for r in records], wl.tail_percentile)}
            summary["yardsticks"] = {y.name: y.nominal_s for y in wl.yardsticks}
            summary["median_scale_factor"] = statistics.median(r[1] / r[2] for r in records)
            summary["op_scaled_s"] = {f"{op.slot}:{op.label}": t for op, t, _, _ in per_op.values()}
            summary["passes"] = len(records) // len(ops)
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            records, untraced_s, traced_s, passes = _traced_passes(ops, tracer, args.seconds)
            summary = _summarise(_per_op(records))
            metrics = tracer.metrics(passes)
            metrics["cli.import_s"] = import_s
            metrics["cli.bytes_written"] = sum(r[3].bytes_written for r in records) // passes
            metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
            summary["passes"] = passes
            summary["untraced_s"] = untraced_s
            summary["traced_s"] = traced_s
            units = PER_LAYER_UNITS
    finally:
        wl.close()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} runs={len(records)}")
    result_metrics = _print_metrics(metrics, units)
    summary.update(_env(args.workload, args.seed))
    print("detail " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": summary["unexplained"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
