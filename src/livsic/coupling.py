"""Coupling of two L-systems as a block colligation.

The coupled system lives on the direct sum of the factor state spaces:

    T = [[T1, 2i K1 K2*],    K = [K1]
         [0,  T2       ]]        [K2],   J = 1.

Its transfer function is the product of the factor transfer functions
(multiplication theorem), which is what makes the c-entropy of a coupling
additive.  Coupling is associative: k factors couple as the left fold of
``couple``, whose result holds the coupled system alone.  When both factors
are chains of elementary systems (see ``elementary``), T is fixed by the
concatenated lists of parameters and channel entries, and ``couple`` returns
the longer chain: a call costs O(number of factors) and copies no matrix,
and the chain builds K and T only on first read.  Any other coupling, such
as one with a ``{"T": ...}`` descriptor as a factor, is a plain ``LSystem``
whose T is written once from the factors' blocks.

Closed forms are provided for couplings of two elementary systems and
for the self-coupling of an elementary system with its skew-adjoint
companion.  The latter stay explicit: coupling_*_closed(l, -conj(l)) is
equal but flips the sign of zero coefficient parts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .colligation import LSystem
from .elementary import (_chain, _Chain, _check_upper, _coupling_block, make_elementary,
                         make_skew_adjoint, transfer_closed)
from .errors import IncompatibleError, RangeError
from .ratfun import RationalFunction, rat_mul


@dataclass(frozen=True)
class CoupledSystem:
    system: LSystem


def couple(sys1: LSystem, sys2: LSystem) -> CoupledSystem:
    """Block colligation of two systems with scalar channels.

    Both factors must carry directing sign +1; the coupling block
    2i K1 K2* presumes that convention.  Factors of any state dimension
    are accepted, so couplings can be chained.  Two chains of elementary
    systems couple into one chain without building a matrix: the block's
    entries 2i k_a k_b are largest at the two largest channel entries, as
    rounding is monotone, so they are finite exactly when 2 k_max k_max'
    is.  Any other pair couples into a plain system whose block is built
    once and checked entry by entry.  Either gate raises the one
    RangeError, which is also a ValueError, where the block overflows.
    """
    if sys1.J != 1 or sys2.J != 1:
        raise IncompatibleError("coupling requires directing sign +1 on both factors")
    chains = isinstance(sys1, _Chain) and isinstance(sys2, _Chain)
    if chains:
        finite = math.isfinite(2.0 * sys1._k_max * sys2._k_max)
    else:
        block = _coupling_block(sys1.K, sys2.K)
        finite = np.isfinite(block).all()
    if not finite:
        raise RangeError("non-finite entries in system matrices: "
                         "the coupling block 2i K1 K2* exceeds the float range")
    if chains:
        return CoupledSystem(_chain(sys1._d + sys2._d, max(sys1._k_max, sys2._k_max)))
    zeros = np.zeros((sys2.dim, sys1.dim), dtype=complex)
    t = np.block([[sys1.T, block], [zeros, sys2.T]])
    return CoupledSystem(LSystem(t, np.concatenate([sys1.K, sys2.K]), 1))


def _sum_and_product(lambda0: complex, mu0: complex) -> tuple[complex, complex]:
    """lambda0 + mu0 and lambda0 mu0, which fix the coefficients of the pair
    closed forms; RangeError where either exceeds the float range."""
    lambda0 = _check_upper(lambda0)
    mu0 = _check_upper(mu0)
    s, p = lambda0 + mu0, lambda0 * mu0
    if not (cmath.isfinite(s) and cmath.isfinite(p)):
        raise RangeError(
            f"lambda0 + mu0 = {s} and lambda0 mu0 = {p} for lambda0 = {lambda0}, mu0 = {mu0}: "
            f"the coupling closed form's coefficients exceed the float range")
    return s, p


def coupling_transfer_closed(lambda0: complex, mu0: complex) -> RationalFunction:
    """Product of the two elementary transfer functions, degree (2, 2).
    RangeError where lambda0 + mu0 or lambda0 mu0 is not finite."""
    _sum_and_product(lambda0, mu0)
    return rat_mul(transfer_closed(lambda0), transfer_closed(mu0))


def coupling_impedance_closed(lambda0: complex, mu0: complex) -> RationalFunction:
    """Impedance of the coupling of two elementary systems:

        V(z) = [Im(lambda0 + mu0) z - Im(lambda0 mu0)]
               / [Re(lambda0 + mu0) z - Re(lambda0 mu0) - z^2]

    RangeError where lambda0 + mu0 or lambda0 mu0 is not finite.
    """
    s, p = _sum_and_product(lambda0, mu0)
    return RationalFunction((-p.imag, s.imag), (-p.real, s.real, -1.0))


def self_skew_coupling(lambda0: complex) -> CoupledSystem:
    """Coupling of an elementary system with its skew-adjoint companion.

    The main-operator block is [[lambda0, lambda0 - conj(lambda0)],
    [0, -conj(lambda0)]] with a doubled channel column.
    """
    return couple(make_elementary(lambda0).system,
                  make_skew_adjoint(lambda0).system)


def _modulus_squared(lambda0: complex) -> float:
    """|lambda0|^2 as Re^2 + Im^2, the constant coefficient of the self-skew
    closed forms; RangeError where it exceeds the float range."""
    m2 = lambda0.real * lambda0.real + lambda0.imag * lambda0.imag
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
