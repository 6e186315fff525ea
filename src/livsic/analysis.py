"""Donoghue-class classification, c-entropy and dissipation.

A Herglotz function with purely-imaginary value ia at z = i falls into
one of three classes by the size of a = Im V(i):

    a = 1  ->  M_hat               (kappa = 0)
    a < 1  ->  M_hat_kappa         (kappa = (1 - a)/(1 + a))
    a > 1  ->  M_hat_kappa_inverse (kappa = (a - 1)/(1 + a))

The c-entropy of a system is S = -ln|W(-i)| and the dissipation
coefficient D = 1 - exp(-2S).  ``c_entropy`` reads S off a triangular
system as the sum of the elementary entropies of the diagonal of T (the
triangular model; see ``colligation``), so a long chain neither cancels
nor underflows; any other system goes to ``c_entropy_resolvent``.  Under
coupling, S is additive and D composes as D1 + D2 - D1*D2.  Infinity is
carried as the genuine IEEE infinity (never a large float).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .colligation import LSystem, _eigenvalue_error, transfer_resolvent
from .elementary import _check_upper
from .errors import DomainError, NotHerglotzError, RangeError

TAU_CLASS = 1e-9

INF = float("inf")
_TINY = float(np.finfo(float).tiny)


class DonoghueClass(enum.Enum):
    M_HAT = "M_hat"
    M_HAT_KAPPA = "M_hat_kappa"
    M_HAT_KAPPA_INVERSE = "M_hat_kappa_inverse"
    NONE = "none"


@dataclass(frozen=True)
class DonoghueClassification:
    class_tag: DonoghueClass
    kappa: float | None
    a: float


def classify_at_i(v_at_i: complex) -> DonoghueClassification:
    """Classify a Herglotz function from its value at z = i, which must be
    finite with a positive imaginary part."""
    v_at_i = complex(v_at_i)
    a = v_at_i.imag
    if not cmath.isfinite(v_at_i):
        raise NotHerglotzError(f"V(i) = {v_at_i} is not finite")
    if a <= 0:
        raise NotHerglotzError(f"Im V(i) = {a} is not positive")
    if abs(v_at_i.real) > TAU_CLASS:
        return DonoghueClassification(DonoghueClass.NONE, None, a)
    if abs(a - 1.0) <= TAU_CLASS:
        return DonoghueClassification(DonoghueClass.M_HAT, 0.0, a)
    if a < 1.0:
        return DonoghueClassification(DonoghueClass.M_HAT_KAPPA, (1.0 - a) / (1.0 + a), a)
    return DonoghueClassification(DonoghueClass.M_HAT_KAPPA_INVERSE, (a - 1.0) / (1.0 + a), a)


def classify_elementary(lambda0: complex) -> DonoghueClassification:
    """Classify the elementary system's impedance from its parameter.

    V(i) = Im(l)/(Re(l) - i), so membership requires Re(l) = 0 and the
    class is decided by a = Im(l) against 1.  Im V(i) = Im(l)/(Re(l)^2 + 1)
    is positive for every admissible l; RangeError where it underflows.
    """
    lambda0 = _check_upper(lambda0)
    v_at_i = lambda0.imag / (lambda0.real - 1j)
    if not v_at_i.imag > 0:
        raise RangeError(f"Im V(i) = Im(l)/(Re(l)^2 + 1) is below the float range "
                         f"for lambda0 = {lambda0}")
    return classify_at_i(v_at_i)


def c_entropy(sys: LSystem) -> float:
    """S = -ln|W(-i)|: the sum of the elementary entropies of the diagonal
    of T when the system has a triangular diagonal (see
    ``LSystem.triangular_diagonal``), else :func:`c_entropy_resolvent`.
    +inf exactly when a diagonal entry is i.  A diagonal entry -i, a pole
    of W there, raises SingularResolventError, found by one comparison with
    the diagonal before the sum."""
    d = sys.triangular_diagonal
    if d is None:
        return c_entropy_resolvent(sys)
    if (d == -1j).any():
        raise _eigenvalue_error(d, complex(0.0, -1.0))
    return float(_elementary_entropy(d.real, d.imag).sum())


def c_entropy_resolvent(sys: LSystem) -> float:
    """S = -ln|W(-i)| via the resolvent (see :func:`_entropy_of_w`)."""
    return _entropy_of_w(transfer_resolvent(sys, -1j))


def _entropy_of_w(w: complex) -> float:
    """S = -ln|w| for w = W(-i); +inf exactly where w = 0, and +0.0 where
    |w| = 1, as from :func:`c_entropy` (the subtraction from 0.0 turns -0.0
    into +0.0)."""
    mag = abs(w)
    return INF if mag == 0.0 else 0.0 - math.log(mag)


def dissipation_from_entropy(s: float) -> float:
    """D = 1 - exp(-2S), computed as -expm1(-2S) so that a small S keeps
    its relative accuracy, with D = 1 at S = +inf and D = +0.0 at S = -0.0
    (the subtraction from 0.0 turns -0.0 into +0.0).  RangeError where D
    is below the float range (S below about -354.9, or S = -inf), and for
    an S that is NaN."""
    if math.isnan(s):
        raise RangeError(f"D = 1 - exp(-2S) is undefined for S = {s}")
    try:
        e = math.expm1(-2.0 * s)
    except OverflowError:
        e = INF
    if e == INF:
        raise RangeError(f"D = 1 - exp(-2S) is below the float range for S = {s}")
    return 0.0 - e


def _elementary_entropy(x, y):
    """S = (1/2) ln[(x^2 + (1+y)^2)/(x^2 + (1-y)^2)], elementwise over
    parameters x + iy, to a few ulp wherever S is a normal float; +inf where
    x + iy = i.  With hi and lo the two sums of squares, hi/lo = 1 + u for
    u = 4y/lo, and S = (1/2) log1p(u), with u formed as 4 (y/h)/h for
    h = hypot(x, 1 - y), which squares nothing, wherever 4y > -lo/2 (every
    y >= 0, and an infinite lo).  Then u > -1/2, where log1p is well
    conditioned.  Only a J = -1 entry with hi < lo/2 takes the ratio,
    (1/2) ln(hi/lo), which cannot cancel there as |S| > (1/2) ln 2, and the
    ratio is formed only when some entry takes it.  Where
    either sum is below twice the smallest normal float (x + iy near i,
    where u can overflow, or near -i for a J = -1 system),
    S = ln hypot(x, 1+y) - ln h."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xx, ym = x * x, 1.0 - y
        lo = xx + ym * ym
        h = np.hypot(x, ym)
        s = 0.5 * np.log1p(4.0 * (y / h) / h)
        small = lo < 2.0 * _TINY
        keep = 4.0 * y > lo / -2.0
        # a Python bool on the scalar path, where np.all and np.any cost twice the reduce
        if not np.logical_and.reduce(keep, axis=None):
            # hi < 2 tiny needs y = -1 and x tiny, where keep fails, so hi is formed here only
            yp = 1.0 + y
            hi = xx + yp * yp
            s = np.where(keep, s, 0.5 * np.log(np.divide(hi, lo)))
            small = small | (hi < 2.0 * _TINY)
        if np.logical_or.reduce(small, axis=None):
            s = np.where(small, np.log(np.hypot(x, 1.0 + y)) - np.log(h), s)
    return s


def c_entropy_elementary_closed(lambda0: complex) -> float:
    """S = (1/2) ln[(x^2 + (1+y)^2)/(x^2 + (1-y)^2)] for lambda0 = x + iy."""
    lambda0 = _check_upper(lambda0)
    return float(_elementary_entropy(lambda0.real, lambda0.imag))


def dissipation_elementary_closed(lambda0: complex) -> float:
    """D = 4y/(x^2 + (1+y)^2) for lambda0 = x + iy; always in (0, 1].
    Evaluated as 4 (y/g)/g with g = hypot(x, 1 + y), which squares nothing.
    D <= 1 holds exactly, as (1+y)^2 - 4y = (1-y)^2, so a rounded value
    above 1 (y within a few ulp of 1) is capped at 1."""
    lambda0 = _check_upper(lambda0)
    g = math.hypot(lambda0.real, 1.0 + lambda0.imag)
    return min(4.0 * (lambda0.imag / g) / g, 1.0)


def compose_entropy(s1: float, s2: float) -> float:
    """Entropy of a coupling: S1 + S2, with +inf absorbing.  RangeError
    where the sum is NaN: a NaN entropy, or +inf plus -inf."""
    s = s1 + s2
    if math.isnan(s):
        raise RangeError(f"S1 + S2 is not a number for S1 = {s1}, S2 = {s2}")
    return s


def compose_dissipation(d1: float, d2: float) -> float:
    """Dissipation of a coupling: D1 + D2 - D1*D2."""
    for d in (d1, d2):
        if not 0.0 <= d <= 1.0:
            raise RangeError(f"dissipation coefficient {d} outside [0, 1]")
    return d1 + d2 - d1 * d2


def coupling_entropy_closed(lambda0: complex, mu0: complex) -> float:
    """Entropy of the coupling of two elementary systems, as the sum of
    the factor closed forms."""
    return compose_entropy(c_entropy_elementary_closed(lambda0),
                           c_entropy_elementary_closed(mu0))


def coupling_dissipation_closed(lambda0: complex, mu0: complex) -> float:
    """Dissipation of the coupling of two elementary systems:

        D = [4 Im(l)(|m|^2 + 1) + 4 Im(m)(|l|^2 + 1)]
            / [(Re(l)^2 + (1+Im(l))^2)(Re(m)^2 + (1+Im(m))^2)]

    computed as D(l) (|m|^2 + 1)/|m + i|^2 + D(m) (|l|^2 + 1)/|l + i|^2, each
    ratio as (hypot(x, y, 1)/hypot(x, 1 + y))^2, which squares nothing that can
    overflow.  Capped at 1, which D never exceeds but the rounded sum can.
    """
    def ratio(p: complex) -> float:
        return (math.hypot(p.real, p.imag, 1.0) / math.hypot(p.real, 1.0 + p.imag)) ** 2
    lambda0, mu0 = _check_upper(lambda0), _check_upper(mu0)
    return min(dissipation_elementary_closed(lambda0) * ratio(mu0)
               + dissipation_elementary_closed(mu0) * ratio(lambda0), 1.0)


def entropy_surface(x_min: float, x_max: float, y_min: float, y_max: float,
                    nx: int, ny: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid of elementary c-entropy values over parameters x + iy.

    Returns (xs, ys, S) with S of shape (ny, nx), row-major over y then x.
    The value is +inf exactly where (x, y) = (0, 1) lands on a grid node.
    All four bounds must be finite and both y bounds positive.
    """
    bounds = (x_min, x_max, y_min, y_max)
    if not (all(map(math.isfinite, bounds)) and y_min > 0 and y_max > 0):
        raise DomainError(f"grid bounds must be finite with y > 0, got {bounds}")
    if not all(isinstance(m, (int, np.integer)) for m in (nx, ny)):
        raise ValueError(f"nx and ny must be integers, got {nx!r} and {ny!r}")
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    return xs, ys, _elementary_entropy(*np.meshgrid(xs, ys))
