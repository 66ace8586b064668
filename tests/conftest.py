import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hilfer_dfc import Grid, GridFn


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_grid_fn(rng, base=0.0, count=24, scale=1.0):
    return GridFn(Grid(base, count), rng.uniform(-scale, scale, count))


def rel_err(got, expect):
    return abs(got - expect) / max(1.0, abs(expect))


def in_fresh_thread(fn):
    """fn() run in a new thread, whose transform workspaces start empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def in_threads(call, cases, orders):
    """(i, call(*cases[i])) for each i of each order, one thread per order,
    all released at once and switching often."""
    start = threading.Barrier(len(orders))
    results = []

    def loop(order):
        start.wait()
        done = [(i, call(*cases[i])) for i in order]
        results.extend(done)

    threads = [threading.Thread(target=loop, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def run_python(code, timeout=120):
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout)


def ld_recursion(mu, eta, lam, zeta, count, forcing=None):
    """Forward recursion of u[n] = zeta c_eta[n] - sum_j k_mu[n-1-j] g_j,
    g_j = -lam u_j - forcing[j], in extended precision.

    Returns u (nan from the first value above 1e300 on) and the term scale
    |zeta| c_eta + conv(k_mu, |g|) that the series routes are judged by.
    """
    ld = np.longdouble
    lag = np.arange(1, count, dtype=ld)
    k = np.ones(count, dtype=ld)
    c = np.ones(count, dtype=ld)
    k[1:] = np.cumprod((lag - 1 + ld(mu)) / lag)
    c[1:] = np.cumprod((lag - 1 + ld(eta)) / lag)
    f = np.zeros(count, dtype=ld)
    if forcing is not None:
        f[: len(forcing)] = forcing
    k_rev = k[::-1].copy()
    u = np.full(count, np.nan, dtype=ld)
    g = np.zeros(count, dtype=ld)
    u[0] = zeta
    for n in range(1, count):
        g[n - 1] = -ld(lam) * u[n - 1] - f[n - 1]
        value = ld(zeta) * c[n] - np.dot(k_rev[count - n :], g[:n])
        if not abs(value) <= 1e300:
            break
        u[n] = value
    scale = abs(zeta) * c.astype(float)
    scale[1:] += np.convolve(k[:-1].astype(float), np.abs(g[:-1].astype(float)))[: count - 1]
    return u.astype(float), scale


def stratified_cases(seed, count, mu_hi):
    """(lam, mu, nu, steps) spread over lam in (-1, 1), mu in [0.1, mu_hi],
    nu at both edges and inside, and steps up to 2000: one stratum of
    each range per case."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        lam = -0.995 + 1.99 * (i + rng.uniform()) / count
        mu = 0.1 + (mu_hi - 0.1) * ((5 * i + 2) % count + rng.uniform()) / count
        nu = (0.0, 1.0, float(rng.uniform()))[i % 3]
        steps = int(round(20 * 100 ** (((7 * i + 3) % count + rng.uniform()) / count)))
        cases.append((round(lam, 4), round(mu, 4), round(nu, 4), steps))
    return cases
