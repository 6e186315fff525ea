"""Elementary systems: construction and closed forms against the oracle."""

import math

import numpy as np
import pytest
from conftest import assert_rat_equal, assert_rat_value, draw_upper, draw_z, rel_err

from livsic import (
    DomainError,
    LSystem,
    impedance_closed,
    impedance_eval,
    make_elementary,
    make_skew_adjoint,
    rat_eval,
    skew_impedance_closed,
    skew_transfer_closed,
    transfer_closed,
    transfer_eval,
    validate,
    RationalFunction,
)


class TestMakeElementary:
    def test_unit_imaginary(self):
        built = make_elementary(1j)
        assert built.system.T[0, 0] == 1j
        assert built.system.K[0] == 1.0
        assert built.system.J == 1
        assert validate(built.system).residual == 0.0

    def test_one_plus_i(self):
        built = make_elementary(1 + 1j)
        assert built.system.T[0, 0] == 1 + 1j
        assert built.system.K[0] == 1.0

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            make_elementary(1 - 1j)
        with pytest.raises(DomainError):
            make_elementary(2.0)

    def test_record_builds_dense_arrays_on_first_read(self, rng):
        # real parts +-0.0, subnormal and 1e308 parts
        for lam in (1j, complex(-0.0, 0.5), 1e308 + 1e-308j, 1.7976931348623157e308j,
                    complex(0.0, 5e-324), complex(-5e-324, 1e-310), complex(3e-320, 2.0),
                    complex(-1e308, 1e308), complex(-0.0, 1.7976931348623157e308),
                    complex(1.7976931348623157e308, 5e-324), draw_upper(rng), draw_upper(rng)):
            sys = make_elementary(lam).system
            assert "T" not in vars(sys) and "K" not in vars(sys)
            dense = LSystem([[lam]], [math.sqrt(lam.imag)])
            t, k = sys.T, sys.K
            assert t.shape == (1, 1) and t.tobytes() == dense.T.tobytes()
            assert k.shape == (1,) and k.tobytes() == dense.K.tobytes()
            for a in (t, k):
                assert not a.flags.writeable and a.flags.owndata
            assert sys.T is t and sys.K is k
            assert sys == dense and dense == sys

    def test_norms_have_the_dense_bytes(self, rng):
        lams = [1j, 1e308 + 1e-308j, -1.7e308 + 1.7e308j, 5e-324j, 3.0 + 4.0j]
        for lam in lams + [draw_upper(rng) for _ in range(300)]:
            sys = make_elementary(lam).system
            dense = LSystem([[lam]], [math.sqrt(lam.imag)])
            assert sys.t_norm.hex() == dense.t_norm.hex(), lam
            assert sys.residual.hex() == dense.residual.hex(), lam
            assert "T" not in vars(sys)

    def test_channel_squares_to_imag_part(self, rng):
        for _ in range(20):
            lam = draw_upper(rng)
            k = make_elementary(lam).system.K[0]
            assert abs(k * k.conjugate() - lam.imag) < 1e-15


class TestTransferClosed:
    def test_unit_imaginary(self):
        assert_rat_equal(transfer_closed(1j),
                         RationalFunction((1j, 1.0), (-1j, 1.0)))

    def test_one_plus_i(self):
        assert_rat_equal(transfer_closed(1 + 1j),
                         RationalFunction((1 - 1j, -1.0), (1 + 1j, -1.0)))

    def test_magnitude_at_minus_i_for_2i(self):
        w = rat_eval(transfer_closed(2j), -1j)
        assert abs(abs(w) - 1.0 / 3.0) < 1e-14
        oracle = transfer_eval(make_elementary(2j).system, -1j)
        assert rel_err(w, oracle) < 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            transfer_closed(-1j)


class TestImpedanceClosed:
    def test_unit_imaginary(self):
        assert_rat_equal(impedance_closed(1j), RationalFunction((-1.0,), (0.0, 1.0)))

    def test_one_plus_i(self):
        assert_rat_equal(impedance_closed(1 + 1j), RationalFunction((1.0,), (1.0, -1.0)))

    def test_triple_imaginary_at_i(self):
        # Im/(Re - z) with Re=0, Im=3 at z=i: 3/(-i) = 3i
        assert_rat_value(impedance_closed(3j), 1j, 3j)


class TestSkewAdjoint:
    def test_one_plus_i(self):
        skew = make_skew_adjoint(1 + 1j)
        assert skew.system.T[0, 0] == -1 + 1j
        assert_rat_equal(skew_transfer_closed(1 + 1j),
                         RationalFunction((1 + 1j, 1.0), (1 - 1j, 1.0)))
        assert_rat_equal(skew_impedance_closed(1 + 1j),
                         RationalFunction((-1.0,), (1.0, 1.0)))

    def test_self_skew_at_unit_imaginary(self):
        skew = make_skew_adjoint(1j)
        orig = make_elementary(1j)
        assert skew.system.T[0, 0] == orig.system.T[0, 0] == 1j

    def test_two_plus_i(self):
        skew = make_skew_adjoint(2 + 1j)
        assert skew.system.T[0, 0] == -2 + 1j
        assert_rat_equal(skew_impedance_closed(2 + 1j),
                         RationalFunction((-1.0,), (2.0, 1.0)))
        v = impedance_eval(skew.system, 1.5j)
        assert rel_err(v, rat_eval(skew_impedance_closed(2 + 1j), 1.5j)) < 1e-12

    def test_is_elementary_system_of_mirrored_parameter(self, rng):
        for lam in (1j, 1 + 1j, -2 + 0.5j, draw_upper(rng)):
            skew, mirror = make_skew_adjoint(lam), make_elementary(-lam.conjugate())
            assert skew == mirror and skew.lambda0 == -lam.conjugate()

    def test_imag_part_preserved(self, rng):
        for _ in range(20):
            lam = draw_upper(rng)
            rep = validate(make_skew_adjoint(lam).system)
            assert rep.residual <= 1e-15


class TestClosedVersusResolvent:
    def test_transfer_and_impedance_agree(self, rng):
        for _ in range(40):
            lam = draw_upper(rng)
            sys = make_elementary(lam).system
            w_closed, v_closed = transfer_closed(lam), impedance_closed(lam)
            for _ in range(8):
                z = draw_z(rng, avoid=(lam,))
                assert rel_err(rat_eval(w_closed, z), transfer_eval(sys, z)) < 1e-12
                assert rel_err(rat_eval(v_closed, z), impedance_eval(sys, z)) < 1e-12

    def test_skew_forms_agree(self, rng):
        for _ in range(40):
            lam = draw_upper(rng)
            sys = make_skew_adjoint(lam).system
            w_closed, v_closed = skew_transfer_closed(lam), skew_impedance_closed(lam)
            for _ in range(8):
                z = draw_z(rng, avoid=(-lam.conjugate(),))
                assert rel_err(rat_eval(w_closed, z), transfer_eval(sys, z)) < 1e-12
                assert rel_err(rat_eval(v_closed, z), impedance_eval(sys, z)) < 1e-12


class TestAnalyticProperties:
    def test_unimodular_on_real_axis(self, rng):
        for lam in (1j, 1 + 1j, draw_upper(rng), draw_upper(rng)):
            w = transfer_closed(lam)
            for x in np.linspace(-5, 5, 20):
                assert abs(abs(rat_eval(w, x)) - 1.0) < 1e-12

    def test_contractive_below_real_axis(self):
        w = transfer_closed(1 + 1j)
        for z in (-1j, -0.9j, -1j + 0.1, -1j - 0.1, -0.5j):
            assert abs(rat_eval(w, z)) < 1.0

    def test_skew_duality(self, rng):
        # transfer of the companion system equals 1/W(-z)
        for _ in range(20):
            lam = draw_upper(rng)
            w, wx = transfer_closed(lam), skew_transfer_closed(lam)
            z = draw_z(rng, avoid=(lam, -lam, lam.conjugate(), -lam.conjugate()))
            assert rel_err(rat_eval(wx, z), 1.0 / rat_eval(w, -z)) < 1e-12

    def test_impedances_herglotz(self, rng):
        for _ in range(20):
            lam = draw_upper(rng)
            for v in (impedance_closed(lam), skew_impedance_closed(lam)):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
                assert rat_eval(v, z).imag > 0
