"""Elementary one-dimensional L-systems and their closed forms.

For a parameter lambda0 in the open upper half-plane the elementary
system has main operator [lambda0], channel [sqrt(Im lambda0)] and
directing sign +1; the colligation identity then holds exactly by
construction.  Its transfer function is the degree-one Blaschke-type
factor

    W(z) = (conj(lambda0) - z) / (lambda0 - z),

and its impedance function the one-pole Herglotz function

    V(z) = Im(lambda0) / (Re(lambda0) - z).

The skew-adjoint companion replaces the main operator by [-conj(lambda0)]
while keeping the channel; as -conj(lambda0) has the same imaginary part,
it is the elementary system of -conj(lambda0).

``make_elementary`` returns a record of the parameter: J = 1, dim = 1,
lambda0 and the channel entry sqrt(Im lambda0), which is also the largest
part of K.  T and K are built on first read and then kept, with the bytes
of ``LSystem([[lambda0]], [sqrt(Im lambda0)])``.  A coupling of elementary
systems reads lambda0 and the channel entry off the record, so a chain of
them folds, validates and evaluates without a 1x1 array per factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .colligation import LSystem
from .errors import DomainError
from .ratfun import RationalFunction


def _check_upper(lambda0: complex) -> complex:
    lambda0 = complex(lambda0)
    if not cmath.isfinite(lambda0) or not lambda0.imag > 0:
        raise DomainError(f"parameter must satisfy Im > 0, got {lambda0}")
    return lambda0


class _Elementary(LSystem):
    """The elementary system, recorded by its parameter ``_lambda0`` and
    channel entry ``_k`` = sqrt(Im lambda0), with J = 1 and dim = 1."""

    @cached_property
    def T(self) -> np.ndarray:
        t = np.array([[self._lambda0]], dtype=complex)
        t.flags.writeable = False
        return t

    @cached_property
    def K(self) -> np.ndarray:
        k = np.array([self._k], dtype=complex)
        k.flags.writeable = False
        return k


@dataclass(frozen=True)
class ElementarySystem:
    lambda0: complex
    system: LSystem


def make_elementary(lambda0: complex) -> ElementarySystem:
    """Build the 1x1 system ([lambda0], [sqrt(Im lambda0)], +1)."""
    lambda0 = _check_upper(lambda0)
    system = object.__new__(_Elementary)
    system.__dict__.update(J=1, dim=1, _lambda0=lambda0, _k=math.sqrt(lambda0.imag))
    return ElementarySystem(lambda0, system)


def make_skew_adjoint(lambda0: complex) -> ElementarySystem:
    """Companion ([-conj(lambda0)], [sqrt(Im lambda0)], +1) = make_elementary(-conj(lambda0))."""
    return make_elementary(-_check_upper(lambda0).conjugate())


def transfer_closed(lambda0: complex) -> RationalFunction:
    """W(z) = (conj(lambda0) - z)/(lambda0 - z), denominator made monic."""
    lambda0 = _check_upper(lambda0)
    return RationalFunction((lambda0.conjugate(), -1.0), (lambda0, -1.0))


def impedance_closed(lambda0: complex) -> RationalFunction:
    """V(z) = Im(lambda0)/(Re(lambda0) - z)."""
    lambda0 = _check_upper(lambda0)
    return RationalFunction((lambda0.imag,), (lambda0.real, -1.0))


def skew_transfer_closed(lambda0: complex) -> RationalFunction:
    """W(z) = (lambda0 + z)/(conj(lambda0) + z) = transfer_closed(-conj(lambda0))."""
    return transfer_closed(-_check_upper(lambda0).conjugate())


def skew_impedance_closed(lambda0: complex) -> RationalFunction:
    """V(z) = -Im(lambda0)/(Re(lambda0) + z) of the skew companion.  Kept explicit:
    impedance_closed(-conj(lambda0)) is equal but flips the sign of a zero coefficient."""
    lambda0 = _check_upper(lambda0)
    return RationalFunction((-lambda0.imag,), (lambda0.real, 1.0))
