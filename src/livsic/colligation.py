"""Matrix-backed canonical L-systems and their transfer and impedance functions.

An L-system here is a colligation (T, K, J) on a finite-dimensional state
space with a one-dimensional input-output space: T is the main operator,
K the channel column, and J = +/-1 the directing sign, tied together by
the colligation identity Im T = K J K*.

The resolvent evaluators work directly off dense linear solves and serve
as the independent oracle for every closed form in the package:

    transfer_resolvent(z)  = 1 - 2i K* (T - zI)^(-1) K J
    impedance_resolvent(z) = K* (Re T - zI)^(-1) K

Each takes one point z or a 1-D sequence of points, and then returns a
list of values; each value is finite, or the call raises a typed error
(see ``_solve_guarded``).

``transfer_eval`` and ``impedance_eval`` pick their path.  For a valid
colligation T - 2iJ KK* = T*, so the matrix determinant lemma gives
W(z) = det(T* - zI)/det(T - zI).  When T is upper triangular with
diagonal t_1, ..., t_n (every elementary system and every chain of
couplings) that is Livsic's triangular model,

    W(z) = prod_j (conj(t_j) - z)/(t_j - z),

which costs O(n) and stays exact where the dense solve loses precision.
V follows from W by the Cayley link V = iJ(W - 1)/(W + 1), evaluated
through the product u = 1/W or u = W, whichever has |u| <= 1 at z:

    V(z) = +/- iJ (1 - u)/(1 + u).

Any other system goes to the resolvent (see ``LSystem.triangular_diagonal``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, SingularResolventError

#: Bound on ||Im T - K J K*|| / (1 + ||T||) for a valid system.
TAU_COLLIGATION = 1e-9

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class LSystem:
    """Colligation (T, K, J) with scalar input-output space.

    T is n-by-n complex, K a length-n complex column, J is +1 or -1, and
    dim is n.  Construction checks shapes only; use :func:`validate` to
    test the colligation identity itself (deliberately broken systems must
    remain constructible so that validation can report on them).

    Systems compare by value (same J, K and T) and are unhashable.
    """

    T: np.ndarray
    K: np.ndarray
    J: int
    dim: int = field(init=False, repr=False, compare=False)

    def __init__(self, T, K, J=1):
        rows, T = T, np.array(T, dtype=complex, ndmin=2)
        # ndmin=2 reads a T with no rows, [], as 1x0: it is the 0x0 operator
        if T.shape == (1, 0) and np.ndim(rows) == 1:
            T = T.reshape(0, 0)
        K = np.array(np.ravel(K), dtype=complex)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise DimensionError(f"main operator must be square, got {T.shape}")
        if K.shape[0] != T.shape[0]:
            raise DimensionError(
                f"channel length {K.shape[0]} != state dimension {T.shape[0]}")
        # True == 1 and 1 + 0j == 1, so a bool or a complex would pass the membership test
        if isinstance(J, (bool, np.bool_, complex, np.complexfloating)) or J not in (1, -1):
            raise DimensionError(f"directing sign must be +1 or -1, got {J!r}")
        if not (np.isfinite(T).all() and np.isfinite(K).all()):
            raise ValueError("non-finite entries in system matrices")
        self.__dict__.update(T=_read_only(T), K=_read_only(K), J=int(J), dim=T.shape[0])

    def __eq__(self, other):
        # K before T, so that unequal couplings do not build T
        if not isinstance(other, LSystem):
            return NotImplemented
        return (self.J == other.J and np.array_equal(self.K, other.K)
                and np.array_equal(self.T, other.T))

    @cached_property
    def residual(self) -> float:
        """Colligation residual ||Im T - J K K*|| (Frobenius); inf where K K*
        overflows, and then ``validate`` fails.  K K* is subtracted or added
        by J's sign: the complex product J K K* would turn inf times 0 into NaN."""
        im_t = _hermitian_part(self.T, True)
        with np.errstate(over="ignore", invalid="ignore"):
            kk = np.outer(self.K, self.K.conj())
            return _frobenius(im_t - kk if self.J > 0 else im_t + kk)

    @cached_property
    def t_norm(self) -> float:
        """||T|| (Frobenius)."""
        return _frobenius(self.T)

    @cached_property
    def _re_t(self) -> np.ndarray:
        """Re T = (T + T*)/2, read-only, formed once for the resolvent.  For n = 1
        it is [[Re t + 0j]], the same bytes: the complex division by 2 turns -0.0 into +0.0."""
        t = self.T
        re_t = np.array([[t[0, 0].real + 0j]]) if self.dim == 1 else _hermitian_part(t, False)
        return _read_only(re_t)

    @cached_property
    def im_strip(self) -> tuple[float, float]:
        """Interval [lo, hi] holding Im x*Tx for every unit vector x.

        x* Im T x = J|K*x|^2 + x*Ex with ||E|| <= residual, so the numerical
        range of T lies in the strip lo <= Im <= hi even for a broken system.
        """
        jk2 = self.J * float(np.vdot(self.K, self.K).real)
        return min(0.0, jk2) - self.residual, max(0.0, jk2) + self.residual

    @cached_property
    def triangular_diagonal(self) -> np.ndarray | None:
        """Diagonal of T when T is upper triangular and the system passes
        :func:`validate`, else None.  W and the c-entropy are then read off
        it (the triangular model); None sends them to the resolvent.

        A plain system qualifies by a scan below the diagonal and one call of
        ``validate``; a chain of elementary systems qualifies by construction
        and overrides this, so it builds neither T nor ``validate``'s norms."""
        upper = not np.tril(self.T, -1).any()
        return self.T.diagonal() if upper and validate(self).passed else None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hermitian_part(t: np.ndarray, imag: bool) -> np.ndarray:
    """Re t = (t + t*)/2, or Im t = (t - t*)/2i when ``imag``.  Where the
    plain sum overflows, and only there, an entry is formed from the halved
    operands: halving a subnormal rounds, so every finite entry keeps the
    plain bytes.  The halved sum is still divided by 1 or i, a complex
    division like the plain one, so that its zero parts take the same signs."""
    adj = t.conj().T
    unit = 1j if imag else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        s = t - adj if imag else t + adj
        s /= 2.0 * unit
    bad = ~np.isfinite(s)
    half, half_adj = t[bad] / 2.0, adj[bad] / 2.0
    s[bad] = (half - half_adj if imag else half + half_adj) / unit
    return s


def _frobenius(a: np.ndarray) -> float:
    """||a||_F.  A real array takes sqrt(x.x) of its ravelled x, which is what
    np.linalg.norm computes for it, without the wrapper.  Where the plain sum
    of squares overflows, the norm is recomputed with a scaled by its largest
    entry, so it is inf only when it exceeds the float range itself."""
    with np.errstate(over="ignore"):
        if a.dtype == np.float64:
            x = a.ravel(order="K")
            r = math.sqrt(x.dot(x))
        else:
            r = float(np.linalg.norm(a))
        if math.isinf(r):
            m = float(np.abs(a).max())
            if math.isfinite(m):
                r = m * float(np.linalg.norm(a / m))
    return r


@dataclass(frozen=True)
class ValidationReport:
    residual: float
    threshold: float
    passed: bool


def validate(sys: LSystem) -> ValidationReport:
    """Check the colligation identity Im T = K J K*.

    The residual ||(T - T*)/2i - J K K*|| (Frobenius) is compared against
    TAU_COLLIGATION * (1 + ||T||).
    """
    threshold = TAU_COLLIGATION * (1.0 + sys.t_norm)
    return ValidationReport(sys.residual, threshold, sys.residual <= threshold)


def _needs_svd(sys: LSystem, z: complex, re_t: bool) -> bool:
    """Whether the resolvent at z must run the SVD test of
    :func:`_solve_guarded`, on a = Re T - zI when ``re_t``, else on
    a = T - zI: true unless floor > 4*n*eps*(||T||_F + sqrt(n)|z|).

    floor, the distance from z to the strip that holds the numerical range
    of the unshifted operator, ``sys.im_strip`` for T and [0, 0] (so |Im z|)
    for Re T, is a proven lower bound on sigma_min(a), as
    sigma_min(A - zI) >= dist(z, W(A)).  The bound ||T||_F + sqrt(n)|z| is
    at least ||a||_F >= sigma_max(a), as ||Re T||_F <= ||T||_F.  Past it,
    sigma_min exceeds four times the threshold n*eps*sigma_max, and the
    margin absorbs the O(eps*||a||) rounding in the bound, in floor and in
    the SVD, so the SVD test could not fire.  It skips 5 in 6 of the verify
    suite's 2x2 slices, 8% of its time; chains reach the resolvent only in
    ``impedance_eval``'s fallback, and a dense system's c-entropy at n = 64
    to 256, where the SVD costs 6 to 10 times the solve.  The predicate is
    true for every non-finite z, where the bound is inf or NaN, and for a
    finite z whose |z| exceeds the float range, where the bound is taken as inf.
    """
    lo, hi = (0.0, 0.0) if re_t else sys.im_strip
    try:
        bound = sys.t_norm + math.sqrt(sys.dim) * abs(z)
    except OverflowError:  # abs() of a finite z whose modulus exceeds the float range
        bound = math.inf
    return not max(lo - z.imag, z.imag - hi) > 4.0 * sys.dim * _EPS * bound


def _solve_guarded(sys: LSystem, z, re_t: bool) -> complex | list[complex]:
    """The resolvent V(z) = q when ``re_t``, else W(z) = 1 - 2iqJ, for
    q = K*x and x the solution of a x = K with a = base - zI, base = Re T
    or T of sys; at each point of z, in a list, when z is a 1-D sequence
    (list, tuple or array).  The copy of base is shifted only on its diagonal.

    SingularResolventError where a is numerically singular:
    sigma_min(a) <= n*eps*sigma_max(a).  For n = 1 that is a_11 == 0, with
    no SVD: sigma_min = sigma_max = |a_11|, and the SVD of a non-finite
    a_11, or of one whose modulus overflows, gives NaN, which passes.  For
    n > 1 the SVD runs only where :func:`_needs_svd` says so and a is
    finite: a non-finite a passes as its NaN singular values
    would, and LAPACK's SVD of it writes an illegal-value message to
    stdout.  DomainError for a z with a NaN part, before LAPACK sees it.
    SingularResolventError where the solve overflows and leaves the value
    non-finite.

    A sequence is solved as a stack: one (m, n, n) copy of base, one
    stacked SVD of the slices that need it and one stacked solve, with an
    (m, n, 1) right-hand side, which numpy 1.x and 2.x read alike.  LAPACK
    treats each slice as it treats the matrix of a call at its point alone,
    and each value is formed from its own slice, so every value has the
    bytes of that call.  Where several points fail, the first one in order
    raises, with the error that call would raise, and only the points
    before the first NaN reach LAPACK.  One point is a stack of one, and
    its value is returned alone."""
    base, op, name = (sys._re_t, "Re T - zI", "V(z)") if re_t else (sys.T, "T - zI", "W(z)")
    n = sys.dim
    single = not isinstance(z, (list, tuple, np.ndarray)) or isinstance(z, np.ndarray) and not z.ndim
    z = np.array([complex(z)] if single else z, dtype=complex)
    if z.ndim != 1:
        raise DimensionError(f"z must be one point or a 1-D sequence, got shape {z.shape}")
    zs = z.tolist()
    stop = next((k for k, zk in enumerate(zs) if cmath.isnan(zk)), len(zs))
    if n <= 1:
        a = base - z[:stop, np.newaxis, np.newaxis]
        # a 0x0 slice has no entry to vanish: W = 1 and V = 0, the empty sums
        singular = [(k, (0.0, 0.0)) for k in range(stop) if n and a[k, 0, 0] == 0]
    else:
        a = base.reshape(1, n * n).repeat(stop, 0)
        a.T[:: n + 1] -= z[:stop]
        a = a.reshape(stop, n, n)
        need = [k for k in range(stop)
                if _needs_svd(sys, zs[k], re_t) and np.isfinite(a[k]).all()]
        s = np.linalg.svd(a[need], compute_uv=False) if need else ()
        singular = [(k, sk) for k, sk in zip(need, s) if sk[-1] <= n * _EPS * sk[0]]
    first, s = singular[0] if singular else (stop, None)
    x = np.linalg.solve(a[:first], sys.K.reshape(1, n, 1)) if first else ()
    out = []
    for xk, zk in zip(x, zs):
        q = np.vdot(sys.K, xk)
        v = complex(q if re_t else 1.0 - 2j * q * sys.J)
        if not cmath.isfinite(v):
            raise SingularResolventError(
                f"{name} at z={zk} overflows the float range: the resolvent gives {v} (n={n})")
        out.append(v)
    if first < stop:
        raise SingularResolventError(
            f"{op} at z={zs[first]} is numerically singular or ill-conditioned: n={n}, "
            f"sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e}")
    if stop < len(zs):
        raise DomainError(f"{op} at z={zs[stop]}: z has a NaN part")
    return out[0] if single else out


def _eigenvalue_error(d: np.ndarray, z: complex) -> SingularResolventError:
    """The refusal where z is an entry of the triangular diagonal d."""
    return SingularResolventError(
        f"T - zI at z={z} is singular: z is an eigenvalue of T "
        f"(diagonal entry {np.flatnonzero(d == z)[0]} of the triangular T, n={d.size})")


def transfer_eval(sys: LSystem, z: complex) -> complex:
    """Transfer function W(z): the triangular product when the system has
    a triangular diagonal (see :attr:`LSystem.triangular_diagonal`) and z
    is finite, else :func:`transfer_resolvent`.

    The product is formed as prod_j (conj(t_j) - z)/(t_j - z) from one
    array of the t_j - z, whose zero test is the eigenvalue test: for
    finite values t_j - z == 0 exactly where t_j == z.  There
    SingularResolventError names the first such j, and an overflowing
    product raises it too; each message is formed only when it is raised.

    The product is exact for the colligation with T's diagonal.  On a
    system that is valid only within ``validate``'s tolerance it can
    differ from the resolvent by far more than eps: a 16-factor chain with
    every Im t_j shifted by 0.9e-9 (1 + ||T||)/4 still passes, and W
    differs by up to about 1e-7 relative."""
    z = complex(z)
    d = sys.triangular_diagonal
    if d is None or not cmath.isfinite(z):
        return transfer_resolvent(sys, z)
    with np.errstate(over="ignore", invalid="ignore"):
        den = d - z
        if not den.all():
            raise _eigenvalue_error(d, z)
        # for a valid system every |factor| lies on one side of 1, so a partial
        # product overflows only if the whole product does
        w = complex(((d.conj() - z) / den).prod())
        if not cmath.isfinite(w):
            raise SingularResolventError(
                f"W(z) at z={z} overflows: |W(z)| exceeds the largest float, with z at "
                f"distance {np.abs(den).min():.3e} from an eigenvalue of T (n={d.size})")
    return w


def transfer_resolvent(sys: LSystem, z) -> complex | list[complex]:
    """Transfer function by resolvent: 1 - 2i K*(T - zI)^(-1) K J, at one
    point z or at each point of a 1-D sequence z (then a list)."""
    return _solve_guarded(sys, z, False)


def impedance_eval(sys: LSystem, z: complex) -> complex:
    """Impedance function V(z): the Cayley link of the triangular product
    when the system has a triangular diagonal (see
    :attr:`LSystem.triangular_diagonal`), else :func:`impedance_resolvent`.

    With f_j = (t_j - z)/(conj(t_j) - z), u = prod f_j = 1/W(z) and
    V = iJ(1 - u)/(1 + u) when J Im z > 0; otherwise the reciprocal
    factors give u = W(z) and V = -iJ(1 - u)/(1 + u).  Every |f_j| <= 1 for
    a valid system, so u cannot overflow, and a pole z = t_j of W gives
    u = 0, the correct limit V = iJ.

    Error bound: each f_j is correct to a few eps, so the computed u is off
    by |du| <= c n eps |u| <= c n eps.  As dV/du = -2iJ/(1 + u)^2 and the
    path requires |1 + u| >= 1/2, V is off by at most
    2|du|/|1 + u|^2 <= 8 c n eps.  Far from the spectrum u is near 1 and V
    is small, so 1 - u is summed instead from the telescoped form
    u - 1 = sum_k (f_k - 1) f_1 ... f_(k-1) when s = sum_k |f_k - 1| |f_1 ... f_(k-1)|
    is below 1.  Its error c n eps s keeps the bound, and is relative to V
    where the terms do not cancel.

    The resolvent is called instead, with bit-identical values and
    errors, unless u is finite, |1 + u| >= 1/2 and the resolvent would skip
    its SVD at z (:func:`_needs_svd` for Re T, whose floor is |Im z|), which
    holds only for a finite z off the real axis; there the resolvent's
    guard could not fire.

    The bound is for the colligation with T's diagonal, as in
    :func:`transfer_eval`: on a system valid only within ``validate``'s
    tolerance, V can differ from the resolvent by far more than eps (up to
    about 1e-7 relative on the shifted 16-factor chain there).
    """
    z = complex(z)
    d = sys.triangular_diagonal
    if d is None or not d.size or _needs_svd(sys, z, True):
        return impedance_resolvent(sys, z)
    sign = 1 if sys.J * z.imag > 0 else -1
    # the f_j above as (a_j - z)/(b_j - z), and f_j - 1 as
    # (a_j - b_j)/(b_j - z), without the cancellation
    a, b = (d, d.conj()) if sign > 0 else (d.conj(), d)
    with np.errstate(all="ignore"):
        den = b - z
        f, steps = (a - z) / den, (a - b) / den
        p = f.cumprod()
        # the telescoped terms (f_k - 1) f_1 ... f_(k-1), written over the spent
        # f; the first is steps_1 times 1 + 0j, a complex product like the rest
        terms = f
        np.multiply(steps[1:], p[:-1], out=terms[1:])
        terms[0] = steps[0] * (1 + 0j)
        u = complex(p[-1])
        telescoped = float(np.abs(terms).sum()) < 1.0
        one_minus_u = -complex(terms.sum()) if telescoped else 1.0 - u
    if not cmath.isfinite(u) or abs(1.0 + u) < 0.5:
        return impedance_resolvent(sys, z)
    return sign * sys.J * 1j * one_minus_u / (1.0 + u)


def impedance_resolvent(sys: LSystem, z) -> complex | list[complex]:
    """Impedance function by resolvent: K*(Re T - zI)^(-1) K, at one point z
    or at each point of a 1-D sequence z (then a list)."""
    return _solve_guarded(sys, z, True)
