"""Classification, c-entropy, dissipation, composition laws, surface grid."""

import decimal
import math
import re

import numpy as np
import pytest
from conftest import draw_upper, entropy_by_where, rel_err

from livsic import (
    DomainError,
    DonoghueClass,
    LSystem,
    NotHerglotzError,
    RangeError,
    SingularResolventError,
    c_entropy,
    c_entropy_elementary_closed,
    c_entropy_resolvent,
    classify_at_i,
    classify_elementary,
    compose_dissipation,
    compose_entropy,
    couple,
    coupling_dissipation_closed,
    coupling_entropy_closed,
    dissipation_elementary_closed,
    dissipation_from_entropy,
    entropy_surface,
    make_elementary,
    make_skew_adjoint,
    self_skew_coupling,
    transfer_resolvent,
)
from livsic.analysis import _elementary_entropy

INF = float("inf")
EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class TestClassifyAtI:
    def test_unit_value(self):
        c = classify_at_i(1j)
        assert c.class_tag is DonoghueClass.M_HAT
        assert c.kappa == 0.0 and c.a == 1.0

    def test_below_one(self):
        c = classify_at_i(1j / 3)
        assert c.class_tag is DonoghueClass.M_HAT_KAPPA
        assert abs(c.kappa - 0.5) < 1e-15

    def test_real_part_breaks_membership(self):
        c = classify_at_i(0.5 + 0.5j)
        assert c.class_tag is DonoghueClass.NONE
        assert c.kappa is None and c.a == 0.5

    def test_not_herglotz(self):
        with pytest.raises(NotHerglotzError):
            classify_at_i(-1j)
        with pytest.raises(NotHerglotzError):
            classify_at_i(2.0)

    @pytest.mark.parametrize("v", [complex(0, math.nan), complex(math.nan, 0.5),
                                   complex(0, INF), complex(INF, 1.0), complex(math.nan, -1.0)])
    def test_non_finite_value_is_not_herglotz(self, v):
        with pytest.raises(NotHerglotzError, match=r"V\(i\) = .*(nan|inf).* is not finite"):
            classify_at_i(v)

    def test_tolerance_band(self):
        assert classify_at_i(complex(0, 1 + 1e-12)).class_tag is DonoghueClass.M_HAT
        assert classify_at_i(complex(1e-12, 0.5)).class_tag is DonoghueClass.M_HAT_KAPPA


class TestClassifyElementary:
    def test_unit_imaginary(self):
        c = classify_elementary(1j)
        assert c.class_tag is DonoghueClass.M_HAT and c.kappa == 0.0

    def test_above_one(self):
        c = classify_elementary(3j)
        assert c.class_tag is DonoghueClass.M_HAT_KAPPA_INVERSE
        assert abs(c.kappa - 0.5) < 1e-15

    def test_point_three(self):
        c = classify_elementary(0.3j)
        assert c.class_tag is DonoghueClass.M_HAT_KAPPA
        assert abs(c.kappa - 7.0 / 13.0) < 1e-15

    def test_nonzero_real_part(self):
        assert classify_elementary(1 + 1j).class_tag is DonoghueClass.NONE

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_elementary(-2j)

    @pytest.mark.parametrize("lam", [complex(4.5361301052989466e+241, 3.2429930722848203e+136),
                                     complex(-2.334038771118839e+208, 7.541437558050817e-234)])
    def test_im_v_at_i_below_the_float_range(self, lam):
        # Im V(i) = y/(x^2 + 1) > 0 underflows to +-0.0
        with pytest.raises(RangeError, match="below the float range"):
            classify_elementary(lam)


class TestEntropy:
    def test_closed_form_values(self):
        assert abs(c_entropy_elementary_closed(1 + 1j) - 0.5 * math.log(5)) < 1e-15
        assert c_entropy_elementary_closed(1j) == INF
        assert abs(c_entropy_elementary_closed(2j) - math.log(3)) < 1e-15
        # reciprocal height gives the same entropy
        assert abs(c_entropy_elementary_closed(0.5j) - math.log(3)) < 1e-15

    def test_resolvent_route(self):
        assert abs(c_entropy_resolvent(make_elementary(1 + 1j).system) - 0.5 * math.log(5)) < 1e-12
        assert c_entropy_resolvent(make_elementary(1j).system) == INF
        # W(-i) = -5e-301i is tiny but not zero, so S is finite
        assert abs(c_entropy_resolvent(make_elementary(1e-300 + 1j).system)
                   - c_entropy_elementary_closed(1e-300 + 1j)) < 1e-12
        assert abs(c_entropy_resolvent(make_elementary(2j).system) - math.log(3)) < 1e-12

    @pytest.mark.parametrize("sys", [
        LSystem(np.zeros((0, 0)), []), LSystem([[2.0]], [0.0], 1), LSystem([[2.0]], [0.0], -1),
        LSystem(np.diag([2.0, -1.0]), [0.0, 0.0]),
    ], ids=["zero-state", "real-J+1", "real-J-1", "diagonal-K0"])
    def test_zero_entropy_has_one_sign(self, sys):
        # |W(-i)| == 1 exactly: -ln 1 is -0.0, and both evaluators give +0.0
        assert abs(transfer_resolvent(sys, -1j)) == 1.0
        for s in (c_entropy(sys), c_entropy_resolvent(sys)):
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_closed_vs_resolvent_random(self, rng):
        for _ in range(50):
            lam = draw_upper(rng)
            assert rel_err(c_entropy_resolvent(make_elementary(lam).system),
                           c_entropy_elementary_closed(lam)) < 1e-12

    def test_skew_preserves_entropy(self, rng):
        for _ in range(20):
            lam = draw_upper(rng)
            assert rel_err(c_entropy(make_skew_adjoint(lam).system),
                           c_entropy_elementary_closed(lam)) < 1e-12

    def test_positive_imag_axis_alternative_sign(self, rng):
        # S can also be read off at +i as +ln|W(i)| when that point is regular
        from livsic import transfer_eval
        for _ in range(20):
            lam = draw_upper(rng)
            if abs(lam - 1j) < 0.2:
                continue
            sys = make_elementary(lam).system
            assert rel_err(math.log(abs(transfer_eval(sys, 1j))), c_entropy(sys)) < 1e-10


class TestDissipation:
    def test_closed_form_values(self):
        assert abs(dissipation_elementary_closed(1 + 1j) - 0.8) < 1e-15
        assert dissipation_elementary_closed(1j) == 1.0
        assert abs(dissipation_elementary_closed(2j) - 8.0 / 9.0) < 1e-15

    def test_links_to_entropy(self, rng):
        for _ in range(200):
            lam = draw_upper(rng)
            s = c_entropy_elementary_closed(lam)
            d = dissipation_elementary_closed(lam)
            assert abs(d - (1.0 - math.exp(-2.0 * s))) < 1e-12
        assert dissipation_elementary_closed(1j) == 1.0

    def test_range(self, rng):
        for _ in range(50):
            d = dissipation_elementary_closed(draw_upper(rng))
            assert 0.0 < d <= 1.0


def _log_uniform(rng, lo, hi, n, signed=False):
    v = 10.0 ** rng.uniform(lo, hi, n)
    return v * rng.choice([-1.0, 1.0], n) if signed else v


def _decimal_entropy(x, y):
    """(1/2) ln[(x^2 + (1+y)^2)/(x^2 + (1-y)^2)] in decimal arithmetic, with
    40 digits beyond those by which 4y = hi - lo lies below hi, so that the
    ratio keeps the digits of a small S."""
    spread = 2.0 * math.log10(max(abs(x), 1.0 + abs(y))) - math.log10(4.0 * abs(y))
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + max(0, math.ceil(spread))
        dx, dy = decimal.Decimal(x), decimal.Decimal(y)
        hi = dx * dx + (1 + dy) * (1 + dy)
        lo = dx * dx + (1 - dy) * (1 - dy)
        return float((hi / lo).ln() / 2)


def _decimal_dissipation(*params):
    """D of one elementary system, or of the coupling of two, in decimal
    arithmetic at 40 digits: every term is positive, so nothing cancels."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        parts = [(decimal.Decimal(p.real), decimal.Decimal(p.imag)) for p in params]
        dens = [x * x + (1 + y) * (1 + y) for x, y in parts]
        if len(parts) == 1:
            return float(4 * parts[0][1] / dens[0])
        (x1, y1), (x2, y2) = parts
        num = 4 * y1 * (x2 * x2 + y2 * y2 + 1) + 4 * y2 * (x1 * x1 + y1 * y1 + 1)
        return float(num / (dens[0] * dens[1]))


def _worst_eps(got, want):
    """Largest relative error in units of eps over the pairs whose reference
    is a normal float (NaN counts as infinitely wrong)."""
    worst = 0.0
    for g, w in zip(got, want):
        if abs(w) >= _TINY:
            err = abs(g - w) / abs(w) / EPS
            worst = max(worst, err if err == err else INF)
    return worst


class TestLargeParameters:
    """Closed forms whose sums of squares overflow a float."""

    def test_entropy_without_overflow(self):
        # S ~ 2y/(x^2 + y^2) once the squares overflow
        assert c_entropy_elementary_closed(1e160 + 1j) == pytest.approx(2e-320, rel=1e-3)
        assert c_entropy_elementary_closed(1e300 + 1e300j) == pytest.approx(1e-300, rel=1e-12)
        assert c_entropy_elementary_closed(1e-3 + 1e200j) == pytest.approx(2e-200, rel=1e-12)
        assert c_entropy_elementary_closed(1j) == INF

    def test_dissipation_without_overflow(self):
        assert dissipation_elementary_closed(1e300 + 1e300j) == pytest.approx(2e-300, rel=1e-12)
        assert dissipation_elementary_closed(1e160 + 1j) == pytest.approx(4e-320, rel=1e-3)
        assert dissipation_elementary_closed(1e200j) == pytest.approx(4e-200, rel=1e-12)
        for lam, mu in ((1e300 + 1e300j, 0.5 + 1j), (1e200j, 1e-3 + 1e200j), (1e300j, 1j)):
            d = coupling_dissipation_closed(lam, mu)
            assert d == pytest.approx(compose_dissipation(dissipation_elementary_closed(lam),
                                                          dissipation_elementary_closed(mu)),
                                      rel=1e-12)

    SMALL_S = [complex(x, y) for x in (0.0, -3e150, 1e100)
               for y in (1e-300, 1e-5, 1e150)] + [1e10 + 1j, 1e7 + 1j]

    @pytest.mark.parametrize("lam", SMALL_S)
    def test_small_entropy_against_log1p(self, lam):
        # every sum of squares here is finite, so the plain log1p form is exact to a
        # few ulp; at x = -3e150 and 1e100 with y = 1e-300 the true S underflows to 0
        x, y = lam.real, lam.imag
        s = c_entropy_elementary_closed(lam)
        assert s >= 0.0 and s == pytest.approx(0.5 * math.log1p(4.0 * y / (x * x + (1.0 - y) ** 2)),
                                              rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", SMALL_S)
    def test_small_entropy_against_mpmath(self, lam):
        # hi/lo = 1 + 4y/lo rounds away the digits of S once 4y/lo is small
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x, y = mpmath.mpf(lam.real), mpmath.mpf(lam.imag)
        truth = float(mpmath.log1p(4 * y / (x ** 2 + (1 - y) ** 2)) / 2)
        assert c_entropy_elementary_closed(lam) == pytest.approx(truth, rel=1e-15, abs=0.0)

    def test_surface_with_huge_bounds(self):
        xs, ys, s = entropy_surface(-1e300, 1e300, 1e-3, 1e300, 3, 3)
        assert np.isfinite(s).all() and (s >= 0.0).all()
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                assert s[iy, ix] == pytest.approx(c_entropy_elementary_closed(complex(x, y)),
                                                  rel=1e-12)


class TestAgainstDecimal:
    """Closed forms against a decimal reference, to a few eps wherever the
    result is a normal float.  Needs no mpmath."""

    N = 400
    ENTROPY_BANDS = {
        "moderate": lambda rng, n: (rng.uniform(-3.0, 3.0, n), _log_uniform(rng, -3, 0.5, n)),
        "small S": lambda rng, n: (_log_uniform(rng, 0, 4, n, True), _log_uniform(rng, -3, 0.5, n)),
        "near i": lambda rng, n: (_log_uniform(rng, -12, -1, n, True),
                                  1.0 + rng.uniform(-1e-3, 1e-3, n)),
        "huge": lambda rng, n: (_log_uniform(rng, -3, 300, n, True), _log_uniform(rng, -3, 300, n)),
        "tiny y": lambda rng, n: (_log_uniform(rng, -3, 3, n, True), _log_uniform(rng, -300, -3, n)),
        "large y": lambda rng, n: (_log_uniform(rng, -3, 3, n, True), _log_uniform(rng, 1, 300, n)),
    }

    @pytest.mark.parametrize("band", ENTROPY_BANDS)
    def test_entropy_within_four_eps(self, rng, band):
        x, y = self.ENTROPY_BANDS[band](rng, self.N)
        lams = [complex(a, b) for a, b in zip(x.tolist(), y.tolist())]
        want = [_decimal_entropy(lam.real, lam.imag) for lam in lams]
        assert _worst_eps([c_entropy_elementary_closed(lam) for lam in lams], want) <= 4.0
        # the array path of entropy_surface and c_entropy
        assert _worst_eps(_elementary_entropy(x, y), want) <= 4.0

    def test_entropy_of_j_minus_one_entries_within_four_eps(self, rng):
        # Im t < 0: S < 0, and the ratio is taken where hi < lo/2
        x, y = _log_uniform(rng, -6, 1, self.N, True), -rng.uniform(0.01, 3.0, self.N)
        got = [c_entropy(LSystem([[complex(a, b)]], [math.sqrt(-b)], -1))
               for a, b in zip(x.tolist(), y.tolist())]
        assert _worst_eps(got, [_decimal_entropy(a, b) for a, b in zip(x.tolist(), y.tolist())]) <= 4.0

    @pytest.mark.parametrize("x", [2.0 ** -511, -(2.0 ** -511), 1.5e-154])
    def test_entropy_where_the_quotient_would_overflow(self, x):
        # at y = 1, 4y/lo = 4/x^2 overflows for x^2 = 2^-1022, the smallest normal
        # float, and is finite for x = 1.5e-154
        assert _worst_eps([c_entropy_elementary_closed(complex(x, 1.0))],
                          [_decimal_entropy(x, 1.0)]) <= 4.0

    @pytest.mark.parametrize("top", [0.5, 300])
    def test_dissipation_within_four_eps(self, rng, top):
        lams = [complex(a, b) for a, b in zip(_log_uniform(rng, -3, top, self.N, True).tolist(),
                                              _log_uniform(rng, -3, top, self.N).tolist())]
        assert _worst_eps([dissipation_elementary_closed(lam) for lam in lams],
                          [_decimal_dissipation(lam) for lam in lams]) <= 4.0

    @pytest.mark.parametrize("top", [0.5, 300])
    def test_coupling_dissipation_within_six_eps(self, rng, top):
        parts = [complex(a, b) for a, b in zip(_log_uniform(rng, -3, top, 2 * self.N, True).tolist(),
                                               _log_uniform(rng, -3, top, 2 * self.N).tolist())]
        pairs = list(zip(parts[::2], parts[1::2]))
        assert _worst_eps([coupling_dissipation_closed(lam, mu) for lam, mu in pairs],
                          [_decimal_dissipation(lam, mu) for lam, mu in pairs]) <= 6.0


class TestRatioOnlyWhereTaken:
    """_elementary_entropy forms the ratio (1/2) ln(hi/lo) only when some entry
    takes it, and keeps the bytes of the np.where over both forms."""

    # (x, y): log1p entries of both signs of y, ratio entries (J = -1, hi < lo/2),
    # hi or lo below twice the smallest normal (beside -i and i), and huge parts
    ENTRIES = [(0.3, 1.2), (-1.5, 0.1), (1.0, -0.1), (-2.0, -0.4), (0.2, -1.0), (0.0, -1.0),
               (-0.7, -2.5), (1e-200, -1.0), (-1e-200, 1.0), (1e300, 1e300), (1e300, -1e-300),
               (-0.0, -3.0), (0.0, 0.5)]

    @staticmethod
    def _hex(values):
        return [float(v).hex() for v in np.ravel(values)]

    def test_arrays_mixing_both_forms(self):
        x, y = (np.array(part) for part in zip(*self.ENTRIES))
        with np.errstate(over="ignore"):
            keep = 4.0 * y > -(x * x + (1.0 - y) ** 2) / 2.0
        assert keep.any() and not keep.all()
        assert self._hex(_elementary_entropy(x, y)) == self._hex(entropy_by_where(x, y))
        # only log1p entries, where the ratio is not formed
        x, y = x[keep], y[keep]
        assert self._hex(_elementary_entropy(x, y)) == self._hex(entropy_by_where(x, y))

    @pytest.mark.parametrize("x, y", ENTRIES)
    def test_python_floats_and_0d_arrays(self, x, y):
        # a Python float pair compares as a Python bool, where ~ would give -1 or -2
        want = float(entropy_by_where(x, y)).hex()
        assert float(_elementary_entropy(x, y)).hex() == want
        assert float(_elementary_entropy(np.array(x), np.array(y))).hex() == want
        if y > 0:
            assert c_entropy_elementary_closed(complex(x, y)).hex() == want

    def test_j_minus_one_triangular_system_mixing_both_forms(self, rng):
        # the J = -1 entries above, beside -i but not on it (a diagonal entry -i
        # is a pole of W(-i), refused), among conjugated upper parameters
        lams = [complex(x, -y) for x, y in self.ENTRIES[:8] if y < 0 and x]
        lams += [draw_upper(rng) for _ in range(6)]
        chain = make_elementary(lams[0]).system
        for lam in lams[1:]:
            chain = couple(chain, make_elementary(lam).system).system
        # entrywise conjugation of a chain: an upper-triangular J = -1 system
        sys = LSystem(chain.T.conj(), chain.K.conj(), -1)
        d = sys.triangular_diagonal
        x, y = d.real, d.imag
        keep = 4.0 * y > -(x * x + (1.0 - y) ** 2) / 2.0
        assert (y < 0).all() and keep.any() and not keep.all()
        assert c_entropy(sys).hex() == float(entropy_by_where(d.real, d.imag).sum()).hex()

    def test_surface_grid(self):
        # the grid passes through x + iy = i, where S = +inf
        xs, ys, s = entropy_surface(-2, 2, 0.05, 3, 81, 60)
        want = entropy_by_where(*np.meshgrid(xs, ys))
        assert s.tobytes() == want.tobytes()
        xs, ys, s = entropy_surface(-1, 1, 0.5, 1.5, 3, 3)
        assert s[1, 1] == INF and s.tobytes() == entropy_by_where(*np.meshgrid(xs, ys)).tobytes()


class TestNearUnitParameter:
    """x + iy within about 1e-154 of i, where x^2 + (1 - y)^2 underflows."""

    XS = (1e-154, 1e-160, 1e-170, 1e-300, 5e-324)

    @pytest.mark.parametrize("y", [1.0, 1.0 + EPS, 1.0 - EPS / 2])
    def test_entropy_against_mpmath(self, y):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for x in self.XS + tuple(-x for x in self.XS):
            mx, my = mpmath.mpf(x), mpmath.mpf(y)
            truth = float(mpmath.log((mx ** 2 + (1 + my) ** 2) / (mx ** 2 + (1 - my) ** 2)) / 2)
            assert c_entropy_elementary_closed(complex(x, y)) == pytest.approx(truth, rel=1e-14), x
        assert c_entropy_elementary_closed(complex(0.0, 1.0)) == INF

    def test_surface_is_infinite_only_at_the_unit_node(self):
        xs, ys, s = entropy_surface(-1e-160, 1e-160, 0.5, 1.5, 3, 3)
        assert xs[1] == 0.0 and ys[1] == 1.0
        assert s[1, 1] == INF and np.isinf(s).sum() == 1
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                assert s[iy, ix] == c_entropy_elementary_closed(complex(x, y))
        assert s[1, 0] == s[1, 2] == pytest.approx(math.log(2.0) + 160 * math.log(10.0), rel=1e-14)

    def test_mirror_near_minus_i(self):
        # a J = -1 system has Im t < 0, where x^2 + (1 + y)^2 underflows near -i
        for x in self.XS:
            sys = LSystem([[complex(x, -1.0)]], [1.0], -1)
            assert sys.triangular_diagonal is not None
            assert c_entropy(sys) == -c_entropy_elementary_closed(complex(x, 1.0))
            if x >= 1e-300:
                assert rel_err(c_entropy(sys), c_entropy_resolvent(sys)) < 1e-14, x
            else:  # the solve's 1/x overflows for a subnormal x
                with pytest.raises(SingularResolventError, match="overflows the float range"):
                    c_entropy_resolvent(sys)

    @pytest.mark.parametrize("x", [1e-10, 1e-5, 1e-3, 1e10])
    def test_mirror_away_from_minus_i(self, x):
        # S < 0 here: the log1p form must not take a ratio near 0 for a small 4|y|/lo
        sys = LSystem([[complex(x, -1.0)]], [1.0], -1)
        assert sys.triangular_diagonal is not None
        s = c_entropy(sys)
        assert math.isfinite(s) and s < 0.0
        assert rel_err(s, -c_entropy_elementary_closed(complex(x, 1.0))) < 1e-15, x
        assert rel_err(s, c_entropy_resolvent(sys)) < 1e-13, x

    def test_chain_holding_a_near_unit_factor(self, rng):
        lams = [draw_upper(rng), complex(1e-170, 1.0), draw_upper(rng)]
        sys = make_elementary(lams[0]).system
        for lam in lams[1:]:
            sys = couple(sys, make_elementary(lam).system).system
        assert sys.triangular_diagonal is not None
        s = c_entropy(sys)
        assert math.isfinite(s)
        assert s == pytest.approx(sum(c_entropy_elementary_closed(lam) for lam in lams), rel=1e-14)


class TestComposition:
    def test_entropy_sum(self):
        assert abs(compose_entropy(0.5 * math.log(5), math.log(3))
                   - 0.5 * math.log(45)) < 1e-15
        assert compose_entropy(INF, math.log(3)) == INF
        assert abs(compose_entropy(math.log(3), math.log(3)) - 2 * math.log(3)) < 1e-15

    @pytest.mark.parametrize("s1, s2", [(math.nan, 1.0), (1.0, math.nan), (INF, -INF)])
    def test_entropy_sum_that_is_nan_raises(self, s1, s2):
        with pytest.raises(RangeError, match=re.escape(f"not a number for S1 = {s1}, S2 = {s2}")):
            compose_entropy(s1, s2)

    def test_dissipation_compose(self):
        assert abs(compose_dissipation(8 / 9, 8 / 9) - 80 / 81) < 1e-15
        assert compose_dissipation(1.0, 0.3) == 1.0
        assert abs(compose_dissipation(0.8, 0.5) - 0.9) < 1e-15

    def test_dissipation_never_exceeds_one_near_i(self):
        ys = [1.0 + k * EPS for k in range(7)] + [1.0 - k * EPS / 2 for k in range(1, 7)]
        for y1 in ys:
            d1 = dissipation_elementary_closed(complex(0.0, y1))
            assert 1.0 - 4 * EPS <= d1 <= 1.0, y1
            for y2 in ys:
                d = coupling_dissipation_closed(complex(0.0, y1), complex(0.0, y2))
                assert 1.0 - 4 * EPS <= d <= 1.0, (y1, y2)
                assert compose_dissipation(d1, d) <= 1.0

    def test_dissipation_range_error(self):
        with pytest.raises(RangeError):
            compose_dissipation(1.2, 0.5)
        with pytest.raises(RangeError):
            compose_dissipation(0.5, -0.1)

    def test_coupling_closed_dissipation_spot(self):
        assert abs(coupling_dissipation_closed(2j, 2j) - 80 / 81) < 1e-15

    def test_three_routes_agree_random(self, rng):
        for _ in range(100):
            lam, mu = draw_upper(rng), draw_upper(rng)
            coupled = couple(make_elementary(lam).system, make_elementary(mu).system)
            s_sum = coupling_entropy_closed(lam, mu)
            assert rel_err(c_entropy(coupled.system), s_sum) < 1e-10
            d_pair = compose_dissipation(dissipation_elementary_closed(lam),
                                         dissipation_elementary_closed(mu))
            d_closed = coupling_dissipation_closed(lam, mu)
            d_system = 1.0 - math.exp(-2.0 * c_entropy(coupled.system))
            assert abs(d_pair - d_closed) < 1e-12
            assert abs(d_pair - d_system) < 1e-10

    def test_self_skew_doubling(self, rng):
        for _ in range(50):
            lam = draw_upper(rng)
            s = c_entropy_elementary_closed(lam)
            d = dissipation_elementary_closed(lam)
            block = self_skew_coupling(lam)
            assert rel_err(c_entropy(block.system), 2.0 * s) < 1e-10
            d_block = 1.0 - math.exp(-2.0 * c_entropy(block.system))
            assert abs(d_block - (2.0 * d - d * d)) < 1e-10


class TestCoherence:
    def test_infinite_entropy_iff_class_m_hat(self, rng):
        params = [draw_upper(rng) for _ in range(50)] + [1j, 2j, 0.5j, 1 + 1j]
        for lam in params:
            is_m_hat = classify_elementary(lam).class_tag is DonoghueClass.M_HAT
            assert is_m_hat == (c_entropy_elementary_closed(lam) == INF)

    def test_kappa_equals_exp_minus_entropy_below_one(self, rng):
        for _ in range(50):
            a = rng.uniform(0.05, 0.95)
            kappa = classify_elementary(1j * a).kappa
            s = c_entropy_elementary_closed(1j * a)
            assert abs(math.exp(-s) - kappa) < 1e-12


class TestEntropyReport:
    def test_finite(self):
        assert abs(dissipation_from_entropy(math.log(3)) - 8 / 9) < 1e-15

    def test_infinite(self):
        assert dissipation_from_entropy(INF) == 1.0

    @pytest.mark.parametrize("s", [-355.0, -714.5, -1e300, -INF])
    def test_below_the_float_range_raises(self, s):
        with pytest.raises(RangeError, match=re.escape(f"below the float range for S = {s}")):
            dissipation_from_entropy(s)
        assert dissipation_from_entropy(-354.0) == -math.expm1(708.0)

    def test_nan_raises(self):
        with pytest.raises(RangeError, match="undefined for S = nan"):
            dissipation_from_entropy(math.nan)

    def test_small_entropy_keeps_relative_accuracy(self):
        for s in np.geomspace(1e-300, 1e-8, 60):
            s = float(s)
            # D = 2S (1 - S + 2S^2/3 - ...), the series exact to well below eps here
            exact = 2.0 * s * (1.0 - s + 2.0 * s * s / 3.0)
            assert abs(dissipation_from_entropy(s) - exact) <= 4 * EPS * exact
        assert dissipation_from_entropy(2e-320) == 4e-320
        for zero in (0.0, -0.0):
            assert math.copysign(1.0, dissipation_from_entropy(zero)) == 1.0


class TestEntropySurface:
    def test_known_nodes(self):
        xs, ys, s = entropy_surface(-2, 2, 0.25, 3, 81, 12)
        assert xs[40] == 0.0 and ys[3] == 1.0
        assert s[3, 40] == INF
        iy2 = int(np.where(ys == 2.0)[0][0])
        assert abs(s[iy2, 40] - math.log(3)) < 1e-14
        ix1 = int(np.where(xs == 1.0)[0][0])
        iy1 = int(np.where(ys == 1.0)[0][0])
        assert abs(s[iy1, ix1] - 0.5 * math.log(5)) < 1e-14

    def test_infinity_only_at_unit_node(self):
        _, ys, s = entropy_surface(-2, 2, 0.25, 3, 81, 12)
        assert np.isinf(s).sum() == 1

    def test_rows_peak_on_imaginary_axis(self):
        xs, ys, s = entropy_surface(-2, 2, 0.25, 3, 81, 12)
        ix0 = int(np.where(xs == 0.0)[0][0])
        for iy, y in enumerate(ys):
            if y == 1.0:
                continue
            row = s[iy]
            assert int(np.argmax(row)) == ix0
            assert (row[ix0] > np.delete(row, ix0)).all()

    def test_domain_and_shape_errors(self):
        with pytest.raises(DomainError):
            entropy_surface(-1, 1, 0.0, 2, 5, 5)
        with pytest.raises(DomainError):
            entropy_surface(-1, 1, -0.5, 2, 5, 5)
        with pytest.raises(ValueError):
            entropy_surface(-1, 1, 0.1, 2, 1, 5)
        with pytest.raises(ValueError, match=r"^nx and ny must be integers, got 2\.5 and 3$"):
            entropy_surface(-1, 1, 0.1, 2, 2.5, 3)
        assert entropy_surface(-1, 1, 0.1, 2, np.int64(2), 3)[2].shape == (3, 2)

    @pytest.mark.parametrize("bounds", [
        (-1, 1, 1, -1), (-1, 1, 1, 0.0), (-1, 1, math.nan, 1), (math.nan, 1, 0.5, 1),
        (-1, math.inf, 0.5, 2), (-math.inf, 1, 0.5, 2), (-1, 1, 0.5, math.inf),
    ])
    def test_rejects_non_finite_or_nonpositive_bounds(self, bounds):
        with pytest.raises(DomainError):
            entropy_surface(*bounds, 5, 5)

    def test_nodes_equal_scalar_closed_form(self):
        xs, ys, s = entropy_surface(-2, 2, 0.25, 3, 17, 12)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                assert s[iy, ix] == c_entropy_elementary_closed(complex(x, y))

    def test_row_major_layout(self):
        xs, ys, s = entropy_surface(0, 1, 0.5, 1.5, 3, 4)
        assert s.shape == (4, 3)
        assert s[2, 1] == pytest.approx(c_entropy_elementary_closed(complex(xs[1], ys[2])))
