"""Rational-function substrate: arithmetic, Cayley maps, partial fractions."""

import cmath
import math

import numpy as np
import pytest
from conftest import assert_rat_equal, assert_rat_value, rat_sum, rel_err

from livsic import (
    AtomicMeasure,
    DegenerateError,
    DomainError,
    LSystem,
    NotHerglotzAtomicError,
    PoleError,
    Polynomial,
    RationalFunction,
    cayley_v_to_w,
    cayley_w_to_v,
    partial_fractions_real_poles,
    rat_eval,
    rat_mul,
    rat_sampled_equal,
    transfer_resolvent,
)
from livsic.ratfun import _SAMPLE_POINTS, N_SAMPLE_POINTS, TAU_POLE, _PoleResidue

# Frequently used fixtures: the two degree-one pairs from the worked
# examples, W = (z+i)/(z-i) <-> V = -1/z and W = (1-i-z)/(1+i-z) <-> V = 1/(1-z).
W_I = RationalFunction((1j, 1.0), (-1j, 1.0))
V_I = RationalFunction((-1.0,), (0.0, 1.0))
W_1I = RationalFunction((1 - 1j, -1.0), (1 + 1j, -1.0))
V_1I = RationalFunction((1.0,), (1.0, -1.0))


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs == (1.0 + 0j, 2.0 + 0j)
        assert p.degree == 1

    def test_zero_polynomial(self):
        z = Polynomial([0.0, 0.0])
        assert z.is_zero and z.degree == -1 and z(3.7 + 1j) == 0

    def test_horner_eval(self):
        p = Polynomial([1.0, -2.0, 3.0])
        z = 0.5 + 0.25j
        assert p(z) == 1.0 - 2.0 * z + 3.0 * z * z

    def test_arithmetic(self):
        p = Polynomial([1.0, 1.0])
        q = Polynomial([-1.0, 1.0])
        assert (p * q).coeffs == (-1 + 0j, 0j, 1 + 0j)
        assert (p + q).coeffs == (0j, 2 + 0j)
        assert (p - p).is_zero

    def test_product_with_zero(self):
        p = Polynomial([1.0, 2.0])
        assert (p * Polynomial()).is_zero and (Polynomial() * p).is_zero

    def test_constant_has_no_roots(self):
        assert Polynomial([3.0]).roots().size == 0 and Polynomial().roots().size == 0

    def test_derivative(self):
        p = Polynomial([5.0, 1.0, 2.0, 4.0])
        assert p.derivative().coeffs == (1 + 0j, 4 + 0j, 12 + 0j)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, complex(float("nan"), 0.0)])


class TestRationalFunction:
    def test_monic_normalization(self):
        r = RationalFunction((0.0, 2.0), (1.0, 0.0, -1.0))  # 2z/(1-z^2)
        assert r.den.coeffs[-1] == 1.0
        assert_rat_value(r, 2j, 4j / (1 - (2j) ** 2))

    def test_normalization_idempotent(self):
        r = RationalFunction((0.0, 2.0), (1.0, 0.0, -1.0))
        again = RationalFunction(r.num, r.den)
        assert again.num.coeffs == r.num.coeffs
        assert again.den.coeffs == r.den.coeffs

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction((1.0,), (0.0,))


class TestRatEval:
    def test_blaschke_at_2i(self):
        # (z+i)/(z-i) at 2i: (3i)/(i) = 3
        assert rel_err(rat_eval(W_I, 2j), 3.0) < 1e-15

    def test_constant_term(self):
        assert rat_eval(V_1I, 0.0) == 1.0

    def test_degree_one_factor_at_minus_i(self):
        # ((1-i)-z)/((1+i)-z) at z=-i: 1/(1+2i) = 0.2 - 0.4i,
        # cross-checked against the 1x1 resolvent evaluation
        expected = 0.2 - 0.4j
        assert rel_err(rat_eval(W_1I, -1j), expected) < 1e-15
        oracle = transfer_resolvent(LSystem([[1 + 1j]], [1.0], 1), -1j)
        assert rel_err(oracle, expected) < 1e-14

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            rat_eval(W_I, 1j)
        with pytest.raises(PoleError):
            rat_eval(V_I, 0.0)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_z_raises_domain_error_on_both_paths(self, z):
        # as the resolvents do; the comparisons of the pole guards are false for NaN
        for r in (W_I, _PoleResidue(((1.0, 2.0), (-1.0, 1.0)))):
            with pytest.raises(DomainError, match="rat_eval at z=.*: z has a NaN part"):
                rat_eval(r, z)
        # a measure's own entry point is the same evaluator
        with pytest.raises(DomainError, match="z has a NaN part"):
            AtomicMeasure([(1.0, 2.0), (-1.0, 1.0)]).cauchy_transform(z)
        with pytest.raises(DomainError, match="z has a NaN part"):
            transfer_resolvent(LSystem([[1j]], [1.0], 1), z)

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(-math.inf, 0.0),
                                   complex(0.0, math.inf), complex(1.0, -math.inf),
                                   complex(math.inf, math.inf)])
    def test_infinite_z_gives_the_limit(self, z):
        # equal degrees: the numerator's leading coefficient, the resolvent's limit
        # where it has one (with both parts infinite its solve overflows)
        assert rat_eval(W_I, z) == 1.0
        if not (math.isinf(z.real) and math.isinf(z.imag)):
            assert transfer_resolvent(LSystem([[1j]], [1.0], 1), z) == 1.0
        assert rat_eval(RationalFunction((1.0, 2.0 - 3j), (5.0, 1.0)), z) == 2.0 - 3j
        # a lower numerator degree, and the zero numerator: 0
        for r in (V_I, V_1I, RationalFunction((), (1.0, 1.0))):
            assert rat_eval(r, z) == 0j
        # a higher one: the pole at infinity
        for r in (RationalFunction((1.0, 2.0, 3.0), (1.0, 1.0)), RationalFunction((0.0, 1.0))):
            with pytest.raises(PoleError, match=r"pole at infinity: the numerator's degree"):
                rat_eval(r, z)

    def test_pole_scale_is_stored_from_the_monic_denominator(self):
        r = RationalFunction((1.0,), (4.0, -6.0, 2.0))
        assert r._pole_scale == 3.0 == max(1.0, max(abs(c) for c in r.den.coeffs))
        assert RationalFunction((1.0,), (0.25, 1.0))._pole_scale == 1.0
        assert "pole_scale" not in repr(r)


class TestRatMul:
    def test_equal_factor_product(self):
        prod = rat_mul(W_I, W_I)
        expected = RationalFunction((-1.0, 2j, 1.0), (-1.0, -2j, 1.0))  # (z+i)^2/(z-i)^2
        assert_rat_equal(prod, expected)

    def test_identity_element(self):
        one = RationalFunction((1.0,), (1.0,))
        assert_rat_equal(rat_mul(W_1I, one), W_1I)

    def test_inverse_pair_by_evaluation(self):
        inv = RationalFunction(W_I.den, W_I.num)
        one = RationalFunction((1.0,), (1.0,))
        assert rat_sampled_equal(rat_mul(W_I, inv), one, 1e-12)

    def test_eval_homomorphism(self, rng):
        for _ in range(50):
            n1 = rng.normal(size=3) + 1j * rng.normal(size=3)
            n2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            d1 = rng.normal(size=3) + 1j * rng.normal(size=3)
            d2 = rng.normal(size=4) + 1j * rng.normal(size=4)
            r1, r2 = RationalFunction(n1, d1), RationalFunction(n2, d2)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                lhs = rat_eval(rat_mul(r1, r2), z)
                rhs = rat_eval(r1, z) * rat_eval(r2, z)
            except PoleError:
                continue
            assert rel_err(lhs, rhs) < 1e-12


class TestCayley:
    def test_known_pairs_forward(self):
        assert_rat_equal(cayley_w_to_v(W_I), V_I)
        assert_rat_equal(cayley_w_to_v(W_1I), V_1I)
        one = RationalFunction((1.0,), (1.0,))
        assert cayley_w_to_v(one).num.is_zero

    def test_known_pairs_backward(self):
        assert_rat_equal(cayley_v_to_w(V_I), W_I)
        assert_rat_equal(cayley_v_to_w(V_1I), W_1I)
        zero = RationalFunction((0.0,), (1.0,))
        w = cayley_v_to_w(zero)
        assert_rat_value(w, 0.3 + 0.7j, 1.0)

    def test_degenerate(self):
        minus_one = RationalFunction((-1.0,), (1.0,))
        with pytest.raises(DegenerateError):
            cayley_w_to_v(minus_one)
        const_i = RationalFunction((1j,), (1.0,))
        with pytest.raises(DegenerateError):
            cayley_v_to_w(const_i)

    def test_round_trip_random(self, rng):
        for _ in range(100):
            dn, dd = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            v = RationalFunction(rng.normal(size=dn) + 1j * rng.normal(size=dn),
                                 rng.normal(size=dd) + 1j * rng.normal(size=dd))
            assert rat_sampled_equal(cayley_w_to_v(cayley_v_to_w(v)), v, 1e-12)


class TestPartialFractions:
    def test_single_pole_at_origin(self):
        m = partial_fractions_real_poles(V_I)
        assert m.atoms == ((0.0, 1.0),)

    def test_symmetric_pair(self):
        r = RationalFunction((0.0, 2.0), (1.0, 0.0, -1.0))  # 2z/(1-z^2)
        m = partial_fractions_real_poles(r)
        assert len(m.atoms) == 2
        for (t, w), t_exp in zip(m.atoms, (-1.0, 1.0)):
            assert abs(t - t_exp) < 1e-12 and abs(w - 1.0) < 1e-12

    def test_sqrt2_pair(self):
        r = RationalFunction((0.0, 2.0), (2.0, 0.0, -1.0))  # 2z/(2-z^2)
        m = partial_fractions_real_poles(r)
        locs = [t for t, _ in m.atoms]
        assert abs(locs[0] + math.sqrt(2)) < 1e-12
        assert abs(locs[1] - math.sqrt(2)) < 1e-12
        assert all(abs(w - 1.0) < 1e-12 for _, w in m.atoms)

    def test_weights_match_numeric_residue_limit(self):
        # independent oracle: w = lim_{z->t} (t - z) r(z), approached from above
        r = RationalFunction((0.0, 2.0), (1.0, 0.0, -1.0))
        for t, w in partial_fractions_real_poles(r).atoms:
            z = t + 1e-7j
            limit = ((t - z) * rat_eval(r, z)).real
            assert abs(w - limit) < 1e-5

    def test_reconstruction(self, rng):
        r = rat_sum(RationalFunction((0.5,), (0.3, -1.0)),
                    RationalFunction((2.0,), (-1.2, -1.0)))
        m = partial_fractions_real_poles(r)
        for _ in range(8):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            assert abs(m.cauchy_transform(z) - rat_eval(r, z)) < 1e-10

    def test_rejections(self):
        with pytest.raises(NotHerglotzAtomicError):  # complex poles
            partial_fractions_real_poles(RationalFunction((1.0,), (1.0, 0.0, 1.0)))
        with pytest.raises(NotHerglotzAtomicError):  # double pole, split by rounding
            partial_fractions_real_poles(RationalFunction((1.0,), (1.0, -2.0, 1.0)))
        with pytest.raises(NotHerglotzAtomicError, match="repeated pole"):  # exact double pole
            partial_fractions_real_poles(RationalFunction((1.0,), (0.0, 0.0, 1.0)))
        with pytest.raises(NotHerglotzAtomicError):  # residue of wrong sign
            partial_fractions_real_poles(RationalFunction((1.0,), (0.0, 1.0)))
        with pytest.raises(NotHerglotzAtomicError):  # not strictly proper
            partial_fractions_real_poles(RationalFunction((1.0, 0.0, 1.0), (1.0, 1.0)))

    def test_zero_function_has_empty_measure(self):
        m = partial_fractions_real_poles(RationalFunction((0.0,), (0.0, 1.0)))
        assert m.atoms == ()


class TestPoleResidue:
    # 2/(1 - z) + 1/(-1 - z) = (1 + 3z)/(1 - z^2)
    ATOMS = ((1.0, 2.0), (-1.0, 1.0))

    def test_evaluates_from_its_atoms_and_returns_its_measure(self):
        # real poles and positive weights: the record is the measure itself
        r = AtomicMeasure(self.ATOMS)
        assert rel_err(rat_eval(r, 2j), (1 + 6j) / 5) < 1e-15
        assert_rat_equal(r, RationalFunction((1.0, 3.0), (1.0, 0.0, -1.0)))
        assert not rat_sampled_equal(r, W_I, 1e-9)
        assert partial_fractions_real_poles(r) is r
        # the atoms are the whole record: there are no coefficients to read
        assert not hasattr(r, "num") and not hasattr(r, "den")

    @pytest.mark.parametrize("t", [0.5, -3e6])
    def test_guard_is_per_pole(self, t):
        r = _PoleResidue(((t, 1.0), (t + 10.0, 1.0)))
        reach = TAU_POLE * max(1.0, abs(t))
        for z in (t, t + 0.9 * reach, complex(t, -0.9 * reach)):
            with pytest.raises(PoleError, match=f"pole {t}"):
                rat_eval(r, z)
        assert rat_eval(r, complex(t, 1.1 * reach)).imag > 0

    def test_record_without_measure_refuses_its_complex_pole(self):
        # 1/(i - z): its own poles and weights say why it has no atoms
        with pytest.raises(NotHerglotzAtomicError, match=r"complex pole 1j"):
            partial_fractions_real_poles(_PoleResidue(((1j, 1.0),)))
        with pytest.raises(NotHerglotzAtomicError, match=r"weight -2.0 at t=1.0 not positive real"):
            partial_fractions_real_poles(_PoleResidue(((-1.0, 1.0), (1.0, -2.0))))
        assert partial_fractions_real_poles(_PoleResidue(self.ATOMS)).atoms == ((-1.0, 1.0), (1.0, 2.0))


class TestAtomicMeasure:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AtomicMeasure([(0.0, -1.0)])
        with pytest.raises(ValueError):
            AtomicMeasure([(1.0, 1.0), (1.0, 2.0)])

    @pytest.mark.parametrize("atoms", [
        [(0.0, math.nan)], [(0.0, math.inf)],
        [(math.nan, 1.0), (1.0, 1.0)], [(1.0, 1.0), (math.inf, 1.0)],
    ])
    def test_rejects_non_finite_atoms(self, atoms):
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure(atoms)

    def test_cauchy_transform_at_i_splits_moments(self):
        m = AtomicMeasure([(-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)])
        at_i = m.cauchy_transform(1j)
        assert abs(at_i.real - m.skew_moment()) < 1e-15
        assert abs(at_i.imag - m.poisson_mass()) < 1e-15
        assert m.skew_moment() == 0.0
        assert abs(m.poisson_mass() - 2.0) < 1e-15

    @pytest.mark.parametrize("z", [1.0, 1 + 1e-14j])
    def test_cauchy_transform_guards_each_atom_as_rat_eval_does(self, z):
        # once a ZeroDivisionError at the atom, and -1 + 1e14i beside it
        m = AtomicMeasure([(1.0, 1.0), (-1.0, 2.0)])
        for f in (m.cauchy_transform, lambda z: rat_eval(m, z)):
            with pytest.raises(PoleError, match="too near the pole 1.0"):
                f(z)
        assert m.cauchy_transform(0.5 + 0.25j) == 0.30270270270270294 + 1.0162162162162163j


def test_sampled_equality_detects_difference():
    assert not rat_sampled_equal(W_I, W_1I, 1e-9)


def test_sampled_equality_skips_a_sample_point_at_a_pole():
    # den(z) = z - p vanishes exactly at the first sample point
    r = RationalFunction((1.0,), (-_SAMPLE_POINTS[0], 1.0))
    with pytest.raises(PoleError):
        rat_eval(r, _SAMPLE_POINTS[0])
    assert rat_sampled_equal(r, r)


def test_sampled_equality_needs_enough_clean_points():
    # a pole at all but N_SAMPLE_POINTS - 1 of the sample points
    poles = _SAMPLE_POINTS[N_SAMPLE_POINTS - 1:]
    r = _PoleResidue(tuple((t, 1.0) for t in poles))
    with pytest.raises(PoleError, match="too few clean sample points"):
        rat_sampled_equal(r, r)
