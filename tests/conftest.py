"""Shared helpers: seeded draws, tolerance comparisons and fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import livsic
from livsic import RationalFunction, rat_eval, rat_sampled_equal


def rel_err(a, b):
    """Relative difference with an absolute floor of 1 near zero."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def draw_upper(rng, re_span=2.0, im_lo=0.1, im_hi=2.5):
    """Random parameter in the open upper half-plane."""
    return complex(rng.uniform(-re_span, re_span), rng.uniform(im_lo, im_hi))


def draw_z(rng, avoid=(), min_dist=0.15):
    """Random evaluation point keeping clear of the given spectrum points."""
    while True:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if all(abs(z - p) > min_dist for p in avoid) and abs(z.imag) > 0.05:
            return z


def draw_z_upper(rng):
    return complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))


def rat_sum(r1, r2):
    """r1 + r2 over the common denominator, with no cancellation: a
    coefficient-form oracle, as the package keeps no sums of rational functions."""
    return RationalFunction(r1.num * r2.den + r2.num * r1.den, r1.den * r2.den)


def assert_rat_equal(r1, r2, rel_tol=1e-12):
    assert rat_sampled_equal(r1, r2, rel_tol), (
        f"rational functions differ beyond {rel_tol}:\n  {r1}\n  {r2}")


def assert_rat_value(r, z, expected, rel_tol=1e-12):
    got = rat_eval(r, z)
    assert rel_err(got, expected) <= rel_tol, f"{r} at {z}: {got} != {expected}"


def entropy_by_where(x, y):
    """The elementary entropy with both forms taken for every entry and one
    np.where between them, the expression that ``analysis._elementary_entropy``
    replaced: its values must keep these bytes."""
    tiny = float(np.finfo(float).tiny)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hi = x * x + (1.0 + y) * (1.0 + y)
        lo = x * x + (1.0 - y) * (1.0 - y)
        h = np.hypot(x, 1.0 - y)
        s = np.where(4.0 * y > -lo / 2.0, 0.5 * np.log1p(4.0 * (y / h) / h),
                     0.5 * np.log(np.divide(hi, lo)))
        small = (lo < 2.0 * tiny) | (hi < 2.0 * tiny)
        if np.any(small):
            s = np.where(small, np.log(np.hypot(x, 1.0 + y)) - np.log(h), s)
    return s


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``python -c code *args`` in a fresh interpreter that imports
    the livsic under test, from the source tree or installed."""
    path = [str(Path(livsic.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
