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

``make_elementary`` returns a one-factor elementary chain: the record of
Livsic's triangular model that ``coupling.couple`` extends.  A chain of k
elementary systems, coupled in block order, is fixed by two lists: the
parameters lambda_j, which are the diagonal of T, and the channel
entries k_j = sqrt(Im lambda_j), which are K.  Above the diagonal T holds
2i k_a k_b, below it +0.0.  The chain records J = 1, dim and the
parameters, which fix the channel entries, and builds K and T from them
on first read, with the bytes that the pairwise coupling formula writes
for every tree shape.  W, V and S read the diagonal, and ``validate`` the
residual and ||T||_F, off the parameters in O(k), as the resolvent does T
itself (``_Chain._stack``), so none of them builds a chain's T.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .colligation import LSystem, _frobenius, _read_only
from .errors import DomainError
from .ratfun import RationalFunction


def _check_upper(lambda0: complex) -> complex:
    lambda0 = complex(lambda0)
    if not cmath.isfinite(lambda0):
        raise DomainError(f"parameter must be finite, got {lambda0}")
    if not lambda0.imag > 0:
        raise DomainError(f"parameter must satisfy Im > 0, got {lambda0}")
    return lambda0


def _coupling_block(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The coupling block fl(fl(K1 conj(K2)) 2i) of (..., p) and (..., q) channels,
    a new (..., p, q) array; overflow is quiet here and checked by the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        return k1[..., np.newaxis] * k2.conj()[..., np.newaxis, :] * 2j


class _Chain(LSystem):
    """Elementary systems coupled in block order, recorded without a
    matrix: J = 1, dim, the parameters ``_d`` (the diagonal of T) and the
    largest channel entry ``_k_max``.  The channel entries sqrt(Im lambda_j)
    are not recorded: the square root is correctly rounded, so forming them
    on first read gives the same bytes.  ``K`` is the one array of them, and
    ``residual`` and ``t_norm`` read its real part.  ``triangular_diagonal``
    is the parameters, with no call of ``validate``: T is upper triangular,
    and the residual, at most 2 eps ||T||_F, is far below validate's
    threshold.  One factor is an elementary system."""

    @cached_property
    def triangular_diagonal(self) -> np.ndarray:
        return _read_only(np.fromiter(self._d, complex, self.dim))

    @cached_property
    def K(self) -> np.ndarray:
        return _read_only(np.sqrt(self.triangular_diagonal.imag).astype(complex))

    @cached_property
    def T(self) -> np.ndarray:
        """The one-chain case of :meth:`_stack`, in an array of its own."""
        return _read_only(self._stack([self])[0][0].copy())

    @staticmethod
    def _stack(systems) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`LSystem._stack` from the chains' parameters d (m, n), in a fixed
        number of numpy calls, with each chain's bytes: K = sqrt(Im d), and T
        holds fl(fl(k_a conj(k_b)) 2i) above d, finite by :func:`coupling.couple`'s
        gate.  A stack that holds any other system is LSystem's."""
        try:
            params = [sys._d for sys in systems]
        except AttributeError:  # a plain system, which records no parameters
            return LSystem._stack(systems)
        m, n = len(systems), systems[0].dim
        d = np.fromiter(itertools.chain.from_iterable(params), complex, m * n).reshape(m, n)
        k = np.sqrt(d.imag).astype(complex)
        t = _coupling_block(k, k)
        t[:, np.tri(n, dtype=bool)] = 0.0
        t.reshape(m, n * n)[:, :: n + 1] = d
        return t, k

    @cached_property
    def residual(self) -> float:
        """The dense residual from the lists.  Off the diagonal Im T - KK* is
        exactly 0, and on it the entries are the dense ones (the dense
        (t - conj t)/2i is exactly Im t): Im lambda_j - fl(k_j)^2, a few ulp
        each, whose sum of squares is exact where the Im lambda_j span a few
        binades, so the bytes are the dense ones."""
        k = self.K.real
        return _frobenius(self.triangular_diagonal.imag - k * k)

    @cached_property
    def t_norm(self) -> float:
        """||T||_F.  One factor takes the dense norm of its one entry.  A
        longer chain takes the hypot of the parts of the diagonal and
        2 sqrt(sum_{a<b} k_a^2 k_b^2), the sum taken over k/max k with a
        prefix sum, which cannot cancel or overflow; that value can differ
        from the dense norm of T in the last bits."""
        d = self.triangular_diagonal
        if self.dim == 1:
            return _frobenius(d)
        m = self._k_max
        q = (self.K.real / m) ** 2
        cross = float(q[1:] @ q.cumsum()[:-1])
        return math.hypot(*d.view(float).tolist(), 2.0 * math.sqrt(cross) * m * m)


def _chain(d: tuple[complex, ...], k_max: float) -> _Chain:
    system = object.__new__(_Chain)
    attrs = system.__dict__
    attrs["J"] = 1
    attrs["dim"] = len(d)
    attrs["_d"] = d
    attrs["_k_max"] = k_max
    return system


@dataclass(frozen=True)
class ElementarySystem:
    lambda0: complex
    system: LSystem

    def __init__(self, lambda0: complex, system: LSystem):
        # the fields go straight into the instance dict: the generated frozen
        # __init__ sets each through object.__setattr__, which costs more
        attrs = self.__dict__
        attrs["lambda0"] = lambda0
        attrs["system"] = system


def make_elementary(lambda0: complex) -> ElementarySystem:
    """Build the 1x1 system ([lambda0], [sqrt(Im lambda0)], +1)."""
    lambda0 = _check_upper(lambda0)
    return ElementarySystem(lambda0, _chain((lambda0,), math.sqrt(lambda0.imag)))


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
