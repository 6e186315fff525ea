"""Coupling of two L-systems as a block colligation.

The coupled system lives on the direct sum of the factor state spaces:

    T = [[T1, 2i K1 K2*],    K = [K1]
         [0,  T2       ]]        [K2],   J = 1.

Its transfer function is the product of the factor transfer functions
(multiplication theorem), which is what makes the c-entropy of a coupling
additive.  T is fixed entry by entry by the leaf systems (the uncoupled
factors) and K, so ``couple`` returns a record of the leaves, in block
order, with dim and a bound on the parts of K.  The record builds K and T
on first read and then keeps them: K stacks the leaf K's, and T holds the
leaf T's on its diagonal, 2i K_i conj(K_j) above them and +0.0 below.  A
chain of k factors folds with O(k^2) pointer copies, not O(k^3) bytes of
matrix copies.

When every leaf is 1x1 (a chain of elementary systems), T is upper
triangular and its diagonal d is the leaf T entries.  The coupling then
reads d off the leaves for ``triangular_diagonal``, and with a real K it
also computes ``residual`` and ``t_norm`` from d and K in O(k).  The
residual has the dense bytes on a chain of elementary systems, and can
differ in the last bits on other 1x1 leaves; ``t_norm`` can differ in the
last bits on any.  So
``validate``, W, V and S never build T.  T is built only by the resolvent,
by ``==`` or by a reader of ``T``; a complex K or a leaf wider than 1x1
keeps the dense ``residual`` and ``t_norm``, and so builds T to validate.

An elementary leaf is a record of its parameter (see ``elementary``).
``couple`` takes its bound on K from the record, d takes its lambda0, and
K is one array of the recorded channel entries when every leaf is
elementary, so a chain of elementary systems folds, validates and
evaluates without building a leaf's T or K.  Other leaves are read
through their arrays.

Closed forms are provided for couplings of two elementary systems and
for the self-coupling of an elementary system with its skew-adjoint
companion.  The latter stay explicit: coupling_*_closed(l, -conj(l)) is
equal but flips the sign of zero coefficient parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .colligation import LSystem, _frobenius
from .elementary import _check_upper, _Elementary, make_elementary, make_skew_adjoint, transfer_closed
from .errors import IncompatibleError, RangeError
from .ratfun import RationalFunction, rat_mul

#: Half the largest float.  A part of 2i a conj(b) is at most 4 p q (1 + eps)^3
#: in modulus when every part of a and b is at most p and q, so it is finite
#: when 4 p q is below this.
_PRODUCT_SAFE = 2.0 ** 1023


@dataclass(frozen=True)
class CoupledSystem:
    system: LSystem
    factors: tuple[LSystem, LSystem]


class _Coupling(LSystem):
    """The J = +1 coupling of systems, recorded without a matrix: its leaf
    systems ``_leaves``, dim and the largest part of K ``_k_max``.  Leaves
    are elementary records or plain LSystem instances, never couplings."""

    @cached_property
    def K(self) -> np.ndarray:
        """One array of the recorded channel entries when every leaf is
        elementary, else the leaf K's concatenated: the same bytes."""
        leaves = self._leaves
        if all(isinstance(leaf, _Elementary) for leaf in leaves):
            k = np.array([leaf._k for leaf in leaves], dtype=complex)
        else:
            k = np.concatenate([leaf.K for leaf in leaves])
        k.flags.writeable = False
        return k

    @cached_property
    def T(self) -> np.ndarray:
        """Entry (i, j) above the leaf blocks is fl(fl(K_i conj(K_j)) 2i),
        the bytes the pairwise fold writes for every tree shape.  Those
        entries are finite by the check in :func:`couple`.  The outer
        product's other entries may overflow, quietly, and are overwritten."""
        k = self.K
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.multiply.outer(k, k.conj())
            t *= 2j
        r = 0
        for leaf in self._leaves:
            e = r + leaf.dim
            t[r:e, :r] = 0.0
            t[r:e, r:e] = leaf.T
            r = e
        t.flags.writeable = False
        return t

    @cached_property
    def _leaf_diagonal(self) -> np.ndarray | None:
        """The diagonal of T, read off the leaves when every leaf is 1x1,
        else None.  An elementary leaf gives its recorded lambda0."""
        d = [leaf._lambda0 if isinstance(leaf, _Elementary) else leaf.T.item()
             for leaf in self._leaves if leaf.dim == 1]
        if len(d) != len(self._leaves):
            return None
        d = np.array(d, dtype=complex)
        d.flags.writeable = False
        return d

    def _upper_diagonal(self) -> np.ndarray | None:
        d = self._leaf_diagonal
        return super()._upper_diagonal() if d is None else d

    @cached_property
    def _real_leaves(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The diagonal d of T and the real K, when every leaf is 1x1 and K
        is real, else None.  Then T = diag(d) + 2i k k^T strictly above the
        diagonal, and the off-diagonal entries of Im T - K K* are exactly 0."""
        d, k = self._leaf_diagonal, self.K
        return None if d is None or k.imag.any() else (d, k.real)

    @cached_property
    def residual(self) -> float:
        """The dense residual, from the diagonal alone when
        ``_real_leaves`` applies.  The entries are the dense ones (the dense
        (t - conj t)/2i is exactly Im t); only the order of summation in the
        norm differs.  On a chain of elementary
        systems each entry, Im t_j - fl(sqrt(Im t_j))^2, is a few ulp, so
        the sum of squares is exact where the Im t_j span a few binades, and
        the bytes are the dense ones.  Other 1x1 leaves can differ in the
        last bits."""
        leaves = self._real_leaves
        if leaves is None:
            return super().residual
        d, k = leaves
        return _frobenius(d.imag - k * k)

    @cached_property
    def t_norm(self) -> float:
        """||T||_F, as the hypot of the parts of d and 2 sqrt(sum_{a<b}
        k_a^2 k_b^2) when ``_real_leaves`` applies.  The sum is taken over
        k/max|k| with a prefix sum, which cannot cancel or overflow; the
        value can differ from the dense norm in the last bits."""
        leaves = self._real_leaves
        if leaves is None:
            return super().t_norm
        d, k = leaves
        m = self._k_max or 1.0
        q = (k / m) ** 2
        cross = float(q[1:] @ q.cumsum()[:-1])
        return math.hypot(*d.view(float).tolist(), 2.0 * math.sqrt(cross) * m * m)


def _split(sys: LSystem) -> tuple[tuple[LSystem, ...], float]:
    """The leaf systems of sys, in block order, and the largest modulus
    among the real and imaginary parts of its K: recorded for a coupling
    and for an elementary system (its channel entry), else read off K (a
    list beats numpy on a few entries)."""
    if isinstance(sys, _Coupling):
        return sys._leaves, sys._k_max
    if isinstance(sys, _Elementary):
        return (sys,), sys._k
    return (sys,), max(map(abs, sys.K.view(float).tolist()), default=0.0)


def couple(sys1: LSystem, sys2: LSystem) -> CoupledSystem:
    """Block colligation of two systems with scalar channels.

    Both factors must carry directing sign +1; the coupling block
    2i K1 K2* presumes that convention.  Factors of any state dimension
    are accepted, so couplings can be chained.

    The coupled system records the leaf systems of both factors and builds
    its K and T on first read, so a call costs O(number of leaves) and a
    chain of k factors is folded without copying a matrix.  The factors'
    own blocks are finite already, so only the new block 2i K1 K2* can
    overflow; it is formed, and checked, only when the bound on the parts
    of K1 and K2 cannot rule that out.  ValueError if it overflows.
    """
    if sys1.J != 1 or sys2.J != 1:
        raise IncompatibleError("coupling requires directing sign +1 on both factors")
    (leaves1, k1), (leaves2, k2) = _split(sys1), _split(sys2)
    if not 4.0 * k1 * k2 <= _PRODUCT_SAFE:
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.multiply.outer(sys1.K, sys2.K.conj())
            block *= 2j
        if not np.isfinite(block).all():
            raise ValueError("non-finite entries in system matrices")
    system = object.__new__(_Coupling)
    system.__dict__.update(J=1, dim=sys1.dim + sys2.dim, _leaves=leaves1 + leaves2,
                           _k_max=max(k1, k2))
    return CoupledSystem(system, (sys1, sys2))


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
