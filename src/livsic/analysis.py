"""Donoghue-class classification, c-entropy and dissipation.

A Herglotz function with purely-imaginary value ia at z = i falls into
one of three classes by the size of a = Im V(i):

    a = 1  ->  M_hat               (kappa = 0)
    a < 1  ->  M_hat_kappa         (kappa = (1 - a)/(1 + a))
    a > 1  ->  M_hat_kappa_inverse (kappa = (a - 1)/(1 + a))

The c-entropy of a system is S = -ln|W(-i)| and the dissipation
coefficient D = 1 - exp(-2S).  Under coupling, S is additive and D
composes as D1 + D2 - D1*D2.  Infinity is carried as the genuine IEEE
infinity (never a large float).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .colligation import LSystem, transfer_eval
from .elementary import _check_upper
from .errors import DomainError, NotHerglotzError, RangeError

TAU_CLASS = 1e-9
#: |W(-i)| at or below this underflow guard saturates the entropy to +inf.
TAU_ZERO = 1e-300

INF = float("inf")


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
    class is decided by a = Im(l) against 1.
    """
    lambda0 = _check_upper(lambda0)
    v_at_i = lambda0.imag / (lambda0.real - 1j)
    return classify_at_i(v_at_i)


def c_entropy(sys: LSystem) -> float:
    """S = -ln|W(-i)| via the resolvent; +inf when W(-i) underflows."""
    w = transfer_eval(sys, -1j)
    mag = abs(w)
    if mag <= TAU_ZERO:
        return INF
    return -math.log(mag)


def dissipation_from_entropy(s: float) -> float:
    """D = 1 - exp(-2S), with D = 1 at S = +inf."""
    return 1.0 if math.isinf(s) else 1.0 - math.exp(-2.0 * s)


def _elementary_entropy(x, y):
    """S = (1/2) ln[(x^2 + (1+y)^2)/(x^2 + (1-y)^2)], elementwise over
    parameters x + iy; +inf where x + iy = i."""
    hi = x * x + (1.0 + y) ** 2
    lo = x * x + (1.0 - y) ** 2
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(np.divide(hi, lo))


def c_entropy_elementary_closed(lambda0: complex) -> float:
    """S = (1/2) ln[(x^2 + (1+y)^2)/(x^2 + (1-y)^2)] for lambda0 = x + iy."""
    lambda0 = _check_upper(lambda0)
    return float(_elementary_entropy(lambda0.real, lambda0.imag))


def dissipation_elementary_closed(lambda0: complex) -> float:
    """D = 4y/(x^2 + (1+y)^2) for lambda0 = x + iy; always in (0, 1]."""
    lambda0 = _check_upper(lambda0)
    x, y = lambda0.real, lambda0.imag
    return 4.0 * y / (x * x + (1.0 + y) ** 2)


def compose_entropy(s1: float, s2: float) -> float:
    """Entropy of a coupling: S1 + S2, with +inf absorbing."""
    return s1 + s2


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
    """
    lambda0 = _check_upper(lambda0)
    mu0 = _check_upper(mu0)
    lam2 = lambda0.real ** 2 + lambda0.imag ** 2
    mu2 = mu0.real ** 2 + mu0.imag ** 2
    num = (4.0 * lambda0.imag * (mu2 + 1.0)
           + 4.0 * mu0.imag * (lam2 + 1.0))
    den = ((lambda0.real ** 2 + (1.0 + lambda0.imag) ** 2)
           * (mu0.real ** 2 + (1.0 + mu0.imag) ** 2))
    return num / den


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
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    return xs, ys, _elementary_entropy(*np.meshgrid(xs, ys))
