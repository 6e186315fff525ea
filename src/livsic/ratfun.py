"""Complex polynomials, rational functions and atomic measures.

Everything downstream (closed-form transfer and impedance functions,
Cayley transforms between them, Foster-form circuit data) is carried by
the value types defined here.  All values are immutable and all
operations are pure.

Conventions:

* polynomial coefficients are stored ascending in degree, with exact
  trailing zeros trimmed; the empty tuple is the zero polynomial;
* rational functions are normalized so the denominator is monic — no
  symbolic gcd cancellation is attempted, since exact cancellation is
  ill-posed in floating point;
* rational functions are compared by evaluation on a fixed seeded point
  set, never by coefficient equality;
* a function known by its poles t_j and weights w_j, r(z) = sum
  w_j/(t_j - z), is its atoms alone, with no coefficients: an
  :class:`AtomicMeasure` (M of ``circuit``) or a pole record (Z of
  ``circuit``, with poles on the imaginary axis).  Both support :func:`rat_eval`,
  :func:`rat_sampled_equal` and :func:`partial_fractions_real_poles`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateError, DimensionError, DomainError, NotHerglotzAtomicError, PoleError,
                     RangeError)

# Numerical guards.  Root/residue checks follow standard companion-matrix
# practice; the pole guard is scaled by denominator coefficient size.
TAU_POLE = 1e-12
TAU_ROOT = 1e-8
TAU_RESIDUE = 1e-8
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _as_complex_tuple(coeffs) -> tuple[complex, ...]:
    out = []
    for c in coeffs:
        z = complex(c)
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite coefficient {z!r}")
        out.append(z)
    # trim exact trailing zeros only
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with complex coefficients, ascending degree order."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _as_complex_tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 denoting the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        # Horner evaluation
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = a + (0j,) * (n - len(a))
        b = b + (0j,) * (n - len(b))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        return Polynomial(np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs)))

    def scale(self, factor: complex) -> "Polynomial":
        return Polynomial([factor * c for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def roots(self) -> np.ndarray:
        """Roots via eigenvalues of the companion matrix."""
        if self.degree < 1:
            return np.empty(0, dtype=complex)
        # imported here: nothing else in the package needs numpy.polynomial
        from numpy.polynomial import polynomial as npoly
        return npoly.polyroots(np.asarray(self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = f"({c.real:.12g}{c.imag:+.12g}i)"
            if k == 1:
                term += "z"
            elif k > 1:
                term += f"z^{k}"
            parts.append(term)
        return " + ".join(parts)


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two complex polynomials, denominator kept monic; RangeError
    where dividing by the denominator's leading coefficient exceeds the
    float range."""

    num: Polynomial
    den: Polynomial
    #: num's and den's coefficients in Horner order, highest degree first, and :func:`rat_eval`'s
    #: pole guard, TAU_POLE * max(1, |largest denominator coefficient|)
    _horner: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, num, den=(1.0,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("denominator is the zero polynomial")
        lead = den.coeffs[-1]
        try:
            den, num = den.scale(1.0 / lead), num.scale(1.0 / lead)
        except ValueError:
            raise RangeError(f"dividing by the leading denominator coefficient {lead} "
                             "exceeds the float range") from None
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        try:
            guard = TAU_POLE * max(1.0, max(abs(c) for c in den.coeffs))
        except OverflowError:  # a modulus beyond the float range, formed from the quartered parts
            guard = 4.0 * TAU_POLE * max(abs(c / 4.0) for c in den.coeffs)
        object.__setattr__(self, "_horner", (num.coeffs[::-1], den.coeffs[::-1], guard))

    @property
    def degrees(self) -> tuple[int, int]:
        return self.num.degree, self.den.degree

    def __call__(self, z: complex) -> complex:
        return rat_eval(self, z)

    def __str__(self) -> str:
        return f"[{self.num}] / [{self.den}]"


@dataclass(frozen=True)
class _PoleResidue:
    """A pole record: r(z) = sum w_j/(t_j - z) by its atoms (t_j, w_j) alone,
    with complex poles t_j and real weights w_j, as Z(p) of ``circuit``."""

    atoms: tuple[tuple[complex, float], ...]


def _pole_sum(atoms, z: complex) -> complex:
    """sum w/(t - z) over the atoms (t, w), in their order; PoleError where
    |t - z| <= TAU_POLE * max(1, |t|) for some t."""
    acc = 0j
    for t, w in atoms:
        d = t - z
        # the guard spelled out: max() would double the loop's cost
        try:
            ad = abs(d)
        except OverflowError:  # |t - z| beyond the float range is clear of every pole
            ad = cmath.inf
        if ad <= TAU_POLE or ad <= TAU_POLE * abs(t):
            raise PoleError(f"z={z} is at or too near the pole {t}")
        acc += w / d
    return acc


def _points(z) -> np.ndarray | None:
    """None where z is one point: anything but a list, tuple or array, or a
    0-d array.  Else z as a 1-D complex array, DimensionError for any other
    shape.  The resolvents read z alike."""
    if not isinstance(z, (list, tuple, np.ndarray)) or isinstance(z, np.ndarray) and not z.ndim:
        return None
    zs = np.array(z, dtype=complex)
    if zs.ndim != 1:
        raise DimensionError(f"z must be one point or a 1-D sequence, got shape {zs.shape}")
    return zs


def rat_eval(r: RationalFunction | AtomicMeasure | _PoleResidue, z) -> complex | list[complex]:
    """Evaluate ``r`` at one point z, or at each point of a 1-D sequence z (then
    a list of the single calls' values, where the first failing point raises
    its error); both polynomials are evaluated Horner-style.

    Raises PoleError when the denominator value falls below the scaled
    pole guard, signalling evaluation at or too close to a pole, and
    DomainError for a z with a NaN part, as the resolvents do.  At a z
    with an infinite part the value is the limit at infinity: the
    numerator's leading coefficient when the degrees are equal (the
    denominator is monic), 0 when the numerator's degree is lower, and
    PoleError, the pole at infinity, when it is higher.  At a finite z,
    RangeError where the numerator's or the denominator's Horner value or
    their quotient exceeds the float range; a denominator whose modulus
    alone exceeds it is clear of every pole, and the quotient is formed from
    the quartered values where the plain division overflows inside.  Where
    that RangeError would be raised at a |z| > 1, the value is formed again
    as z^(dn - dd) num_rev(1/z)/den_rev(1/z), from the coefficients in
    reverse order, and returned where it is finite and does not underflow
    to 0; so a Horner value that overflows where r(z) is finite is no
    refusal, and every value returned from the Horner values keeps its bytes.

    A function recorded by its poles and weights, a measure or a pole
    record, is summed directly, sum w_j/(t_j - z); its guard is per pole,
    raising PoleError when |t_j - z| <= TAU_POLE * max(1, |t_j|) for some j;
    a distance |t_j - z| beyond the float range is clear of the pole.
    """
    # a complex point is the common case, and the cheapest test
    if type(z) is not complex:
        zs = _points(z)
        if zs is not None:
            return [rat_eval(r, p) for p in zs.tolist()]
        z = complex(z)
    if cmath.isnan(z):
        raise DomainError(f"rat_eval at z={z}: z has a NaN part")
    if not isinstance(r, RationalFunction):
        return _pole_sum(r.atoms, z)
    if cmath.isinf(z):
        dn, dd = r.degrees
        if dn > dd:
            raise PoleError(f"z={z} is at the pole at infinity: the numerator's degree {dn} "
                            f"exceeds the denominator's {dd}")
        return r.num.coeffs[-1] if dn == dd else 0j
    # Polynomial.__call__'s Horner loops, inlined: the two method calls cost about a
    # fifth of a call, and oracle runs about 3% faster without them
    num_c, den_c, guard = r._horner
    try:
        den = 0j
        for c in den_c:
            den = den * z + c
        den = _finite(den, "denominator's Horner value", z)
        try:
            near = abs(den) < guard
        except OverflowError:  # |den| beyond the float range is clear of every pole
            near = False
        if near:
            raise PoleError(f"denominator ~ 0 at z={z}")
        num = 0j
        for c in num_c:
            num = num * z + c
        num = _finite(num, "numerator's Horner value", z)
        q = num / den
        if not cmath.isfinite(q) or not q and num:
            # complex division overflows inside, to NaN or a silent 0, where a part of num or
            # den nears the float range; quartering both is exact above the subnormals
            q = (num / 4.0) / (den / 4.0)
        return _finite(q, "quotient num/den", z)
    except RangeError:
        # past 1 a Horner value can overflow where r(z) is finite: there r(z) is
        # z^(dn - dd) num_rev(1/z)/den_rev(1/z), with each list of coefficients reversed
        q = _reversed_quotient(r, z) if math.hypot(z.real, z.imag) > 1.0 else None
        if q is None:
            raise
        return q


def _reversed_quotient(r: RationalFunction, z: complex) -> complex | None:
    """r(z) as z^(dn - dd) num_rev(w)/den_rev(w) at w = 1/z, where p_rev(w) =
    w^deg p(1/w) has p's coefficients in reverse order, multiplying or dividing
    by z one degree at a time; None where that value is not finite, or is 0
    while num_rev(w) is not (it underflows).  Each division by z is formed from
    quartered operands where a part of z exceeds half the float range: there
    Python's complex division overflows inside Smith's denominator to a silent 0."""
    big = abs(z.real) > _HALF_MAX or abs(z.imag) > _HALF_MAX
    z4 = z / 4.0
    w = 0.25 / z4 if big else 1.0 / z
    num_rev, den_rev = 0j, 0j
    for c in r.num.coeffs:
        num_rev = num_rev * w + c
    for c in r.den.coeffs:
        den_rev = den_rev * w + c
    if not (cmath.isfinite(num_rev) and cmath.isfinite(den_rev)) or not den_rev:
        return None
    q = num_rev / den_rev
    dn, dd = r.degrees
    for _ in range(dn - dd):
        q *= z
    for _ in range(dd - dn):
        q = (q / 4.0) / z4 if big else q / z
    return q if cmath.isfinite(q) and (q or not num_rev) else None


def _finite(v: complex, what: str, z: complex) -> complex:
    if not cmath.isfinite(v):
        raise RangeError(f"rat_eval at z={z}: the {what} exceeds the float range ({v})")
    return v


def rat_mul(r1: RationalFunction, r2: RationalFunction) -> RationalFunction:
    """Product of two rational functions (no cancellation of common factors)."""
    return RationalFunction(r1.num * r2.num, r1.den * r2.den)


def _cayley_sum(p: Polynomial, q: Polynomial, where: str, what: str) -> Polynomial:
    """p + q, a numerator or denominator of a Cayley map.  p and q are
    finite, so only the sum can leave the float range: RangeError naming its
    first coefficient that does."""
    try:
        return p + q
    except ValueError:
        pairs = itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=0j)
        k, c = next((k, x + y) for k, (x, y) in enumerate(pairs) if not cmath.isfinite(x + y))
        raise RangeError(f"{where}: the z^{k} coefficient of {what} exceeds the float range: "
                         f"{c}") from None


def cayley_w_to_v(w: RationalFunction) -> RationalFunction:
    """Map a transfer-side function W to the impedance side,
    V = i(W - 1)/(W + 1), performed on numerator/denominator pairs.
    RangeError where a coefficient of either exceeds the float range."""
    num = _cayley_sum(w.num, -w.den, "cayley_w_to_v", "num(W) - den(W)").scale(1j)
    den = _cayley_sum(w.num, w.den, "cayley_w_to_v", "num(W) + den(W)")
    if den.is_zero:
        raise DegenerateError("W + 1 vanishes identically")
    return RationalFunction(num, den)


def cayley_v_to_w(v: RationalFunction) -> RationalFunction:
    """Inverse Cayley map, W = (1 - iV)/(1 + iV).  RangeError where a
    coefficient of either side exceeds the float range."""
    iv = v.num.scale(1j)
    num = _cayley_sum(v.den, -iv, "cayley_v_to_w", "den(V) - i num(V)")
    den = _cayley_sum(v.den, iv, "cayley_v_to_w", "den(V) + i num(V)")
    if den.is_zero:
        raise DegenerateError("1 + iV vanishes identically")
    return RationalFunction(num, den)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses at finite real locations, finite weights > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms):
        pairs = sorted((float(t) + 0.0, float(w)) for t, w in atoms)
        for i, (t, w) in enumerate(pairs):
            # a NaN leaves the sort order undefined, but is still rejected here
            if not (cmath.isfinite(t) and 0 < w < cmath.inf):
                raise ValueError(f"atom at t={t} needs a finite location and a finite "
                                 f"positive weight, got {w}")
            if i and pairs[i - 1][0] == t:
                raise ValueError(f"duplicate atom location t={t}")
        object.__setattr__(self, "atoms", tuple(pairs))


def partial_fractions_real_poles(r: RationalFunction | AtomicMeasure | _PoleResidue) -> AtomicMeasure:
    """Extract point masses (t_j, w_j) with r(z) = sum w_j/(t_j - z).

    Requires a strictly proper function whose poles are real and simple
    and whose weights come out positive real — i.e. the rational part of
    a Herglotz function with purely atomic representing measure.  An
    :class:`AtomicMeasure` is returned as itself.  A pole record is checked
    from its atoms, NotHerglotzAtomicError at a complex pole or a weight
    that is not positive.

    A rational function is checked from its coefficients: the roots of the
    denominator must be real and simple (to ``TAU_ROOT``) and the weights
    positive real (to ``TAU_RESIDUE``), else NotHerglotzAtomicError.  No
    path inside the package takes this branch; it is the public Herglotz
    check for coefficients a user supplies.
    """
    if isinstance(r, AtomicMeasure):
        return r
    if isinstance(r, _PoleResidue):
        for t, w in r.atoms:
            if t.imag:
                raise NotHerglotzAtomicError(f"complex pole {t}")
            if not w > 0:
                raise NotHerglotzAtomicError(f"weight {w} at t={t.real} not positive real")
        return AtomicMeasure((t.real, w) for t, w in r.atoms)
    if r.num.is_zero:
        return AtomicMeasure(())
    if r.num.degree >= r.den.degree:
        raise NotHerglotzAtomicError(
            f"not strictly proper: degrees {r.degrees}")
    roots = r.den.roots()
    for i, t in enumerate(roots):
        if abs(t.imag) > TAU_ROOT:
            raise NotHerglotzAtomicError(f"complex pole {t}")
        for s in roots[:i]:
            if abs(t - s) <= TAU_ROOT:
                raise NotHerglotzAtomicError(f"repeated pole near {t}")
    dden = r.den.derivative()
    atoms = []
    for t in roots:
        t = t.real + 0.0
        # simple pole: residue = num(t)/den'(t); weight is its negative
        w = -r.num(t) / dden(t)
        if abs(w.imag) > TAU_RESIDUE * max(1.0, abs(w)) or w.real <= 0:
            raise NotHerglotzAtomicError(f"weight {w} at t={t} not positive real")
        atoms.append((t, w.real))
    return AtomicMeasure(atoms)


@functools.cache
def _sample_points() -> tuple[complex, ...]:
    """The 24 fixed seeded sample points for rational-function comparison,
    drawn on first use, so that importing the package loads no numpy.random.
    Generic complex points: the chance of landing on a pole of any function
    under test is negligible, and near-pole points are skipped anyway."""
    rng = np.random.default_rng(20240831)
    return tuple(complex(re, im) for re, im in zip(rng.uniform(-3, 3, 24), rng.uniform(-3, 3, 24)))


N_SAMPLE_POINTS = 8


def rat_sampled_equal(r1: RationalFunction | _PoleResidue, r2: RationalFunction | _PoleResidue,
                      rel_tol: float = 1e-12) -> bool:
    """Equality by evaluation at the fixed seeded sample points.

    The first ``N_SAMPLE_POINTS`` points where both functions evaluate
    cleanly are compared with relative tolerance ``rel_tol`` (absolute
    floor 1 for values near zero).
    """
    used = 0
    for z in _sample_points():
        try:
            v1, v2 = rat_eval(r1, z), rat_eval(r2, z)
        except PoleError:
            continue
        if abs(v1 - v2) > rel_tol * max(1.0, abs(v1), abs(v2)):
            return False
        used += 1
        if used == N_SAMPLE_POINTS:
            return True
    raise PoleError("too few clean sample points; functions too singular")
