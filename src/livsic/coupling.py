"""Coupling of two L-systems as a block colligation.

The coupled system lives on the direct sum of the factor state spaces:

    T = [[T1, 2i K1 K2*],    K = [K1]
         [0,  T2       ]]        [K2],   J = 1.

Its transfer function is the product of the factor transfer functions
(multiplication theorem), which is what makes the c-entropy of a coupling
additive.  T is fixed entry by entry by the leaf systems (the uncoupled
factors) and K, so ``couple`` records only the leaves and the coupled
system builds K and T on first read: a chain of k factors folds with
O(k^2) pointer copies, not O(k^3) bytes of matrix copies.

Closed forms are provided for couplings of two elementary systems and
for the self-coupling of an elementary system with its skew-adjoint
companion.  The latter stay explicit: coupling_*_closed(l, -conj(l)) is
equal but flips the sign of zero coefficient parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .colligation import LSystem, _Coupling
from .elementary import _check_upper, make_elementary, make_skew_adjoint, transfer_closed
from .errors import IncompatibleError, RangeError
from .ratfun import RationalFunction, rat_mul


@dataclass(frozen=True)
class CoupledSystem:
    system: LSystem
    factors: tuple[LSystem, LSystem]


def couple(sys1: LSystem, sys2: LSystem) -> CoupledSystem:
    """Block colligation of two systems with scalar channels.

    Both factors must carry directing sign +1; the coupling block
    2i K1 K2* presumes that convention.  Factors of any state dimension
    are accepted, so couplings can be chained.

    The coupled system records the leaf systems of both factors and builds
    its K and T on first read (see :class:`LSystem`), so a call costs
    O(number of leaves) and a chain of k factors is folded without copying
    a matrix.  ValueError if the new block 2i K1 K2* overflows.
    """
    if sys1.J != 1 or sys2.J != 1:
        raise IncompatibleError("coupling requires directing sign +1 on both factors")
    return CoupledSystem(_Coupling._of(sys1, sys2), (sys1, sys2))


def coupling_transfer_closed(lambda0: complex, mu0: complex) -> RationalFunction:
    """Product of the two elementary transfer functions, degree (2, 2)."""
    return rat_mul(transfer_closed(lambda0), transfer_closed(mu0))


def coupling_impedance_closed(lambda0: complex, mu0: complex) -> RationalFunction:
    """Impedance of the coupling of two elementary systems:

        V(z) = [Im(lambda0 + mu0) z - Im(lambda0 mu0)]
               / [Re(lambda0 + mu0) z - Re(lambda0 mu0) - z^2]
    """
    lambda0 = _check_upper(lambda0)
    mu0 = _check_upper(mu0)
    s, p = lambda0 + mu0, lambda0 * mu0
    return RationalFunction((-p.imag, s.imag), (-p.real, s.real, -1.0))


def self_skew_coupling(lambda0: complex) -> CoupledSystem:
    """Coupling of an elementary system with its skew-adjoint companion.

    The main-operator block is [[lambda0, lambda0 - conj(lambda0)],
    [0, -conj(lambda0)]] with a doubled channel column.
    """
    lambda0 = _check_upper(lambda0)
    return couple(make_elementary(lambda0).system,
                  make_skew_adjoint(lambda0).system)


def _modulus_squared(lambda0: complex) -> float:
    """|lambda0|^2 as Re^2 + Im^2, the constant coefficient of the self-skew
    closed forms; RangeError where it exceeds the float range."""
    try:
        m2 = lambda0.real ** 2 + lambda0.imag ** 2
    except OverflowError:  # a Python float ** raises where * returns inf
        m2 = math.inf
    if math.isinf(m2):
        raise RangeError(
            f"|lambda0|^2 overflows for lambda0 = {lambda0}: the self-skew closed form's "
            f"coefficients exceed the float range")
    return m2


def self_skew_transfer_closed(lambda0: complex) -> RationalFunction:
    """W(z) = (|l|^2 - 2i Im(l) z - z^2)/(|l|^2 + 2i Im(l) z - z^2)."""
    lambda0 = _check_upper(lambda0)
    m2 = _modulus_squared(lambda0)
    b = 2.0 * lambda0.imag
    return RationalFunction((m2, -1j * b, -1.0), (m2, 1j * b, -1.0))


def self_skew_impedance_closed(lambda0: complex) -> RationalFunction:
    """V(z) = 2 Im(lambda0) z / (|lambda0|^2 - z^2)."""
    lambda0 = _check_upper(lambda0)
    m2 = _modulus_squared(lambda0)
    return RationalFunction((0.0, 2.0 * lambda0.imag), (m2, 0.0, -1.0))
