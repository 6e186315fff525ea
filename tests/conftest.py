"""Shared helpers: seeded draws and tolerance comparisons."""

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
