"""Classification, c-entropy, dissipation, composition laws, surface grid."""

import math

import numpy as np
import pytest
from conftest import draw_upper, rel_err

from livsic import (
    DomainError,
    DonoghueClass,
    NotHerglotzError,
    RangeError,
    c_entropy,
    c_entropy_elementary_closed,
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
)

INF = float("inf")


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


class TestEntropy:
    def test_closed_form_values(self):
        assert abs(c_entropy_elementary_closed(1 + 1j) - 0.5 * math.log(5)) < 1e-15
        assert c_entropy_elementary_closed(1j) == INF
        assert abs(c_entropy_elementary_closed(2j) - math.log(3)) < 1e-15
        # reciprocal height gives the same entropy
        assert abs(c_entropy_elementary_closed(0.5j) - math.log(3)) < 1e-15

    def test_resolvent_route(self):
        assert abs(c_entropy(make_elementary(1 + 1j).system) - 0.5 * math.log(5)) < 1e-12
        assert c_entropy(make_elementary(1j).system) == INF
        assert abs(c_entropy(make_elementary(2j).system) - math.log(3)) < 1e-12

    def test_closed_vs_resolvent_random(self, rng):
        for _ in range(50):
            lam = draw_upper(rng)
            assert rel_err(c_entropy(make_elementary(lam).system),
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


class TestComposition:
    def test_entropy_sum(self):
        assert abs(compose_entropy(0.5 * math.log(5), math.log(3))
                   - 0.5 * math.log(45)) < 1e-15
        assert compose_entropy(INF, math.log(3)) == INF
        assert abs(compose_entropy(math.log(3), math.log(3)) - 2 * math.log(3)) < 1e-15

    def test_dissipation_compose(self):
        assert abs(compose_dissipation(8 / 9, 8 / 9) - 80 / 81) < 1e-15
        assert compose_dissipation(1.0, 0.3) == 1.0
        assert abs(compose_dissipation(0.8, 0.5) - 0.9) < 1e-15

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
