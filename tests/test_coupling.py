"""Coupling of systems: block structure, product law, closed forms."""

import math
import weakref

import numpy as np
import pytest
from conftest import assert_rat_equal, assert_rat_value, draw_upper, draw_z, rel_err

from livsic import (
    IncompatibleError,
    LSystem,
    RangeError,
    RationalFunction,
    SingularResolventError,
    c_entropy,
    cayley_w_to_v,
    classify_at_i,
    classify_elementary,
    couple,
    coupling_impedance_closed,
    coupling_transfer_closed,
    impedance_closed,
    impedance_eval,
    impedance_resolvent,
    make_elementary,
    make_skew_adjoint,
    partial_fractions_real_poles,
    rat_eval,
    self_skew_coupling,
    self_skew_impedance_closed,
    self_skew_transfer_closed,
    skew_impedance_closed,
    transfer_closed,
    transfer_eval,
    transfer_resolvent,
    validate,
)


class TestCouple:
    def test_block_structure_equal_factors(self):
        c = couple(make_elementary(1j).system, make_elementary(1j).system)
        assert np.allclose(c.system.T, [[1j, 2j], [0.0, 1j]])
        assert np.allclose(c.system.K, [1.0, 1.0])
        assert c.system.J == 1

    def test_block_structure_one_plus_i(self):
        c = couple(make_elementary(1 + 1j).system, make_elementary(1 + 1j).system)
        assert np.allclose(c.system.T, [[1 + 1j, 2j], [0.0, 1 + 1j]])
        assert validate(c.system).passed

    def test_transfer_squares(self):
        c = couple(make_elementary(1 + 1j).system, make_elementary(1 + 1j).system)
        w = transfer_eval(c.system, -1j)
        assert rel_err(w, (-3 - 4j) / 25) < 1e-13

    def test_wrong_directing_sign_rejected(self):
        bad = LSystem([[1j]], [1.0], -1)
        chain = couple(make_elementary(1j).system, make_elementary(2j).system).system
        # the sign is checked first, also where the block would overflow
        huge = LSystem([[-1j]], [1e300], -1)
        for sys1, sys2 in ((bad, make_elementary(1j).system), (make_elementary(1j).system, bad),
                           (chain, bad), (bad, chain), (huge, make_elementary(1e308j).system)):
            with pytest.raises(IncompatibleError) as info:
                couple(sys1, sys2)
            assert str(info.value) == "coupling requires directing sign +1 on both factors"


def _couple_reference(sys1, sys2):
    """The coupling formula written out with np.zeros and np.outer."""
    n1, n2 = sys1.dim, sys2.dim
    t = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    t[:n1, :n1] = sys1.T
    t[n1:, n1:] = sys2.T
    t[:n1, n1:] = 2j * np.outer(sys1.K, sys2.K.conj())
    return t, np.concatenate([sys1.K, sys2.K]), 1


def _assert_bitwise(sys, ref):
    t, k, j = ref
    # tobytes also tells +0.0 from -0.0
    assert sys.T.shape == t.shape and sys.T.tobytes() == t.tobytes()
    assert sys.K.shape == k.shape and sys.K.tobytes() == k.tobytes()
    assert sys.J == j and type(sys.J) is int


def _dense(rng, n):
    """A J = +1 system with arbitrary entries (not a colligation)."""
    return LSystem(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                   rng.normal(size=n) + 1j * rng.normal(size=n), 1)


class TestCoupleInPlace:
    def test_chain_bitwise_equal_to_reference(self, rng):
        lams = [draw_upper(rng) for _ in range(64)]
        lams[1] = complex(-0.0, 0.5)
        lams[2] = complex(0.0, 1.5)
        sys = make_elementary(lams[0]).system
        for lam in lams[1:]:
            factor = make_elementary(lam).system
            ref = _couple_reference(sys, factor)
            sys = couple(sys, factor).system
            _assert_bitwise(sys, ref)
        assert sys.dim == 64

    def test_unequal_and_nested_factors(self, rng):
        chain3 = couple(couple(make_elementary(draw_upper(rng)).system,
                               make_elementary(draw_upper(rng)).system).system,
                        make_elementary(draw_upper(rng)).system).system
        pairs = [(_dense(rng, 3), _dense(rng, 5)), (_dense(rng, 5), _dense(rng, 3)),
                 (chain3, _dense(rng, 5)), (_dense(rng, 2), chain3)]
        for sys1, sys2 in pairs:
            ref = _couple_reference(sys1, sys2)
            sys = couple(sys1, sys2).system
            _assert_bitwise(sys, ref)
            # a chain beside a plain system builds the block: the result is a plain system
            assert type(sys) is LSystem and sys == LSystem(*ref)
        # couplings of couplings, both ways round
        left = couple(couple(*pairs[0]).system, couple(*pairs[2]).system).system
        _assert_bitwise(left, _couple_reference(couple(*pairs[0]).system,
                                                couple(*pairs[2]).system))
        right = couple(chain3, couple(*pairs[1]).system).system
        _assert_bitwise(right, _couple_reference(chain3, couple(*pairs[1]).system))

    def test_arrays_are_read_only_and_own_their_memory(self, rng):
        systems = [make_elementary(1j).system,
                   couple(make_elementary(1j).system, make_elementary(2j).system).system,
                   couple(_dense(rng, 3), _dense(rng, 5)).system]
        for sys in systems:
            for a in (sys.T, sys.K):
                assert not a.flags.writeable and a.flags.owndata
            with pytest.raises(ValueError):
                sys.T[0, 0] = 0.0
            with pytest.raises(ValueError):
                sys.K[0] = 0.0

    def test_factors_are_left_untouched(self, rng):
        sys1, sys2 = _dense(rng, 3), _dense(rng, 5)
        t1, k2 = sys1.T.copy(), sys2.K.copy()
        c = couple(sys1, sys2)
        # the result records the coupled system alone, no second copy of the factors
        assert vars(c) == {"system": c.system}
        assert sys1.T.tobytes() == t1.tobytes() and sys2.K.tobytes() == k2.tobytes()
        assert not np.shares_memory(c.system.T, sys1.T)
        assert not np.shares_memory(c.system.K, sys2.K)

    def test_overflowing_coupling_block_raises(self):
        big = LSystem([[1j]], [1e160], 1)
        # 2i K1 K2* = 2e320 i overflows; numpy's overflow warning is not the point here
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite entries in system matrices"):
                couple(big, big)
            with pytest.raises(ValueError, match="non-finite"):
                couple(couple(make_elementary(1j).system, big).system, big)
        # a block that stays finite is accepted
        assert couple(big, make_elementary(1j).system).system.dim == 2

    @pytest.mark.parametrize("first, second", [
        pytest.param("chain", "chain", id="chain"),
        pytest.param("plain", "plain", id="plain"),
        pytest.param("chain", "plain", id="chain-plain"),
        pytest.param("plain", "chain", id="plain-chain"),
        pytest.param("long", "long", id="long-chains"),
        pytest.param("long", "chain", id="long-chain-chain"),
    ])
    def test_overflowing_coupling_block_is_a_range_error(self, first, second):
        # the input is well formed; only the block 2i K1 K2* = 2e308 i is not a float.
        # The chain gate and the entrywise gate raise the same message; a long
        # chain's largest channel entry sits inside it
        factor = {"chain": lambda: make_elementary(1e308j).system,
                  "plain": lambda: LSystem([[1e308j]], [1e154], 1),
                  "long": lambda: couple(couple(make_elementary(0.5j).system,
                                                make_elementary(1e308j).system).system,
                                         make_elementary(2j).system).system}
        with pytest.raises(RangeError) as caught:
            couple(factor[first](), factor[second]())
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == ("non-finite entries in system matrices: "
                                     "the coupling block 2i K1 K2* exceeds the float range")

    @pytest.mark.parametrize("im", [0.89e308, 0.9e308, 1e308, 1.7976931348623157e308])
    def test_overflow_gate_reads_the_elementary_record(self, im):
        # 2 Im lambda0 overflows from about 0.899e308; the gate takes the
        # bound sqrt(Im lambda0) from the record
        lams = [complex(0.5, im), 0.5j, complex(-1.0, im)]
        plain = [LSystem([[lam]], [math.sqrt(lam.imag)], 1) for lam in lams]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_leaf_reference(plain)[0]).all()
        big, small, other = (make_elementary(lam).system for lam in lams)
        assert couple(big, small).system.dim == 2
        if finite:
            _assert_bitwise(couple(couple(big, small).system, other).system,
                            _leaf_reference(plain))
        else:
            with pytest.raises(ValueError, match="non-finite entries in system matrices"):
                couple(big, other)
            with pytest.raises(ValueError, match="non-finite entries in system matrices"):
                couple(couple(big, small).system, other)
        assert finite == (im < 0.9e308)


    @pytest.mark.parametrize("step", range(-4, 5))
    def test_chain_overflow_check_is_exact(self, step):
        # 2 k_a k_b overflows once fl(k_a k_b) reaches 2^1023; the chains'
        # check reads only the largest channel entries
        im = 2.0 ** 1023 * (1.0 + step * 2.0 ** -52)
        lams = [complex(0.5, im), 0.5j, complex(-1.0, im)]
        plain = [LSystem([[lam]], [math.sqrt(lam.imag)], 1) for lam in lams]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_leaf_reference(plain)[0]).all()
        chain = couple(*(make_elementary(lam).system for lam in lams[:2])).system
        last = make_elementary(lams[2]).system
        if finite:
            _assert_bitwise(couple(chain, last).system, _leaf_reference(plain))
        else:
            with pytest.raises(ValueError, match="non-finite entries in system matrices"):
                couple(chain, last)

def _leaf_reference(leaves):
    """T and K of a coupling over ``leaves`` written out with np.zeros and
    np.outer: leaf T's on the diagonal, 2i K_p K_q* above, zeros below."""
    k = np.concatenate([leaf.K for leaf in leaves])
    t = np.zeros((k.size, k.size), dtype=complex)
    r = 0
    for leaf in leaves:
        e = r + leaf.dim
        t[r:e, r:e] = leaf.T
        t[r:e, e:] = 2j * np.outer(leaf.K, k[e:].conj())
        r = e
    return t, k, 1


def _fold(systems, shape):
    """Couple ``systems`` in order as a left fold, a right fold or a
    balanced binary tree."""
    if shape == "left":
        acc = systems[0]
        for s in systems[1:]:
            acc = couple(acc, s).system
        return acc
    if shape == "right":
        acc = systems[-1]
        for s in reversed(systems[:-1]):
            acc = couple(s, acc).system
        return acc
    if len(systems) == 1:
        return systems[0]
    half = len(systems) // 2
    return couple(_fold(systems[:half], shape), _fold(systems[half:], shape)).system


class TestLazyCoupling:
    """A coupling has the leaf reference's bytes for every tree shape; a
    chain of elementary systems builds K and T only on first read."""

    @pytest.mark.parametrize("shape", ["left", "right", "balanced"])
    @pytest.mark.parametrize("count", [2, 3, 17, 64, 256])
    def test_trees_bitwise_equal_to_reference(self, rng, shape, count):
        lams = [draw_upper(rng) for _ in range(count)]
        lams[0] = complex(-0.0, 0.5)
        lams[-1] = complex(0.0, 1.5)
        leaves = [make_elementary(lam).system for lam in lams]
        sys = _fold(leaves, shape)
        assert sys.dim == count
        _assert_bitwise(sys, _leaf_reference(leaves))

    def test_dense_leaves_and_couplings_of_couplings(self, rng):
        a, b = _dense(rng, 3), _dense(rng, 5)
        k = a.K.copy()
        k[0] = complex(-0.0, k[0].imag)
        a = LSystem(a.T, k, 1)
        elem = make_elementary(complex(-0.0, 0.7)).system
        empty = LSystem(np.zeros((0, 0)), [], 1)
        for leaves in ([a, b], [b, a], [a, elem, b], [b, elem, a, b, elem], [elem, empty, elem]):
            for shape in ("left", "right", "balanced"):
                _assert_bitwise(_fold(leaves, shape), _leaf_reference(leaves))
        inner = couple(a, b).system
        outer = couple(couple(elem, inner).system, couple(inner, elem).system).system
        _assert_bitwise(outer, _leaf_reference([elem, a, b, a, b, elem]))

    @pytest.mark.parametrize("shape", ["left", "right", "balanced"])
    def test_mixed_leaves_have_the_dense_bytes(self, rng, shape):
        # elementary records beside the plain 1x1 and 2x2 systems that a
        # {"T": ...} descriptor builds
        lams = [draw_upper(rng) for _ in range(6)]
        for extra in (LSystem([[0.3 + 0.7j]], [math.sqrt(0.7)], 1), _dense(rng, 2)):
            records = [make_elementary(lam).system for lam in lams]
            plain = [LSystem([[lam]], [math.sqrt(lam.imag)], 1) for lam in lams]
            sys = _fold(records[:3] + [extra] + records[3:], shape)
            ref = _fold(plain[:3] + [extra] + plain[3:], shape)
            assert sys.residual.hex() == ref.residual.hex()
            assert sys.t_norm.hex() == ref.t_norm.hex()
            _assert_bitwise(sys, _leaf_reference(plain[:3] + [extra] + plain[3:]))
            if extra.dim == 1:
                assert sys.triangular_diagonal.tobytes() == np.diagonal(sys.T).tobytes()

    def test_built_arrays_are_read_only(self, rng):
        sys = _fold([make_elementary(draw_upper(rng)).system for _ in range(8)] + [_dense(rng, 3)],
                    "balanced")
        for a in (sys.T, sys.K):
            assert not a.flags.writeable and a.flags.owndata
        with pytest.raises(ValueError):
            sys.T[0, 1] = 0.0
        with pytest.raises(ValueError):
            sys.K[-1] = 0.0

    def test_first_read_emits_no_warning(self):
        # the leaf's own K K* block, 1e320, overflows in the outer product;
        # only the block above the leaves is kept.  pytest turns warnings
        # into errors, so a leaked overflow warning fails here
        big = LSystem([[1j]], [1e160], 1)
        small = LSystem([[2j]], [1e-160], 1)
        for leaves in ([big, small], [small, big], [small, big, small]):
            sys = _fold(leaves, "left")
            _assert_bitwise(sys, _leaf_reference(leaves))
            assert np.isfinite(sys.T).all()

    def test_intermediate_fold_systems_are_released(self):
        sys = couple(make_elementary(1j).system, make_elementary(2j).system).system
        sys.T  # a built T must not keep it alive either
        ref = weakref.ref(sys)
        sys = couple(sys, make_elementary(3j).system).system
        assert ref() is None
        assert sys.T.shape == (3, 3)

    @pytest.mark.parametrize("parts", ["real", "imag", "both"])
    def test_overflow_gate_agrees_with_the_exact_check(self, parts):
        # the gate clears 4 k1 k2 <= 2^1023; the block overflows near
        # 2 k1 k2 = 2^1024 (real or imaginary K) or 4 k1 k2 = 2^1024 (both)
        unit = {"real": 1.0, "imag": 1j, "both": 1.0 + 1j}[parts]
        mags = []
        for e in (1021, 1022, 1023, 1024):
            m = 2.0 ** (e / 2.0) / math.sqrt(abs(unit.real) + abs(unit.imag))
            mags += [np.nextafter(m, 0.0), m, np.nextafter(m, np.inf)]
        elem = make_elementary(0.5j).system
        for m1 in mags:
            for m2 in (mags[0], mags[4], m1):
                leaves = [LSystem([[1j]], [m1 * unit], 1), elem, LSystem([[1j]], [m2 * unit], 1)]
                with np.errstate(over="ignore", invalid="ignore"):
                    finite = np.isfinite(_leaf_reference(leaves)[0]).all()
                sys2 = couple(*leaves[1:]).system
                if not finite:
                    with pytest.raises(ValueError, match="non-finite entries in system matrices"):
                        couple(leaves[0], sys2)
                else:
                    _assert_bitwise(couple(leaves[0], sys2).system, _leaf_reference(leaves))

    def test_value_equality(self, rng):
        a, b = make_elementary(1 + 1j).system, _dense(rng, 3)
        first, second = couple(a, b), couple(a, b)
        assert first.system == second.system and first == second
        plain = LSystem(first.system.T, first.system.K, 1)
        assert first.system == plain and plain == first.system
        assert couple(b, a).system != first.system
        assert LSystem(plain.T, plain.K, -1) != plain
        assert plain != (plain.T, plain.K, 1)

    def test_unequal_channels_build_no_t(self):
        one = couple(make_elementary(1j).system, make_elementary(2j).system).system
        other = couple(make_elementary(2j).system, make_elementary(1j).system).system
        assert one != other
        assert "T" not in vars(one) and "T" not in vars(other)

    @pytest.mark.parametrize("build", [
        lambda: make_elementary(1j).system,
        lambda: couple(make_elementary(1j).system, make_elementary(2j).system).system,
        lambda: couple(make_elementary(1j).system, make_elementary(2j).system)])
    def test_systems_are_unhashable(self, build):
        sys = build()
        with pytest.raises(TypeError, match="unhashable type: '(LSystem|_Chain)'"):
            hash(sys)


def _chain(lams):
    return _fold([make_elementary(lam).system for lam in lams], "left")


def _dense_values(sys):
    """residual and t_norm of a plain system with the coupling's T, K and J."""
    plain = LSystem(sys.T, sys.K, sys.J)
    return plain.residual, plain.t_norm


class TestLeafValues:
    """A chain of elementary systems reads validate's inputs and the
    triangular diagonal off its parameters, without building T."""

    def test_chain_builds_no_t(self, rng):
        lams = [draw_upper(rng) for _ in range(64)]
        sys = _chain(lams)
        assert validate(sys).passed
        for z in (1j, -1j, 2.0 + 0.5j):
            transfer_eval(sys, z)
        c_entropy(sys)
        # far from the real axis the Cayley link passes its gate
        v = impedance_eval(sys, 0.3 + 1.5j)
        assert "T" not in vars(sys)
        assert v == pytest.approx(impedance_resolvent(_chain(lams), 0.3 + 1.5j), rel=1e-12)
        d = sys.triangular_diagonal
        assert not d.flags.writeable and d.tobytes() == np.diagonal(sys.T).tobytes()

    def test_chain_reads_no_leaf_array(self, rng):
        leaves = [make_elementary(draw_upper(rng)).system for _ in range(64)]
        sys = _fold(leaves, "left")
        assert validate(sys).passed
        for z in (1j, -1j, 2.0 + 0.5j):
            transfer_eval(sys, z)
        c_entropy(sys)
        impedance_eval(sys, 0.3 + 1.5j)
        assert "T" not in vars(sys)
        assert not [leaf for leaf in leaves if "T" in vars(leaf) or "K" in vars(leaf)]

    @pytest.mark.parametrize("shape", ["left", "right", "balanced"])
    def test_building_t_reads_no_factor_array(self, rng, shape):
        leaves = [make_elementary(draw_upper(rng)).system for _ in range(64)]
        sys = _fold(leaves, shape)
        sys.T, sys.K
        assert not [leaf for leaf in leaves if "T" in vars(leaf) or "K" in vars(leaf)]

    def test_resolvent_fallback_builds_t(self, rng):
        lams = [draw_upper(rng) for _ in range(16)]
        sys = _chain(lams)
        assert sys.triangular_diagonal is not None and "T" not in vars(sys)
        # on the real axis, under a diagonal entry, the gate sends V to the resolvent
        try:
            impedance_eval(sys, lams[3].real)
        except SingularResolventError:
            pass
        assert "T" in vars(sys)

    @pytest.mark.parametrize("k", [2, 3, 7, 64])
    def test_residual_has_the_dense_bytes_on_elementary_chains(self, rng, k):
        for scale in (1.0, 1e-150, 1e150, 1e300):
            sys = _chain([scale * draw_upper(rng) for _ in range(k)])
            residual, t_norm = sys.residual, sys.t_norm
            assert "T" not in vars(sys)
            assert residual.hex() == _dense_values(sys)[0].hex()
            assert t_norm == pytest.approx(_dense_values(sys)[1], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("im", [1.0, 1e200])
    def test_t_norm_matches_the_exact_norm(self, rng, im):
        for k in (2, 3, 64, 256):
            sys = _chain([complex(rng.uniform(-2.0, 2.0) * im, rng.uniform(0.1, 2.5) * im)
                          for _ in range(k)])
            t_norm = sys.t_norm
            t = sys.T / np.abs(sys.T).max()
            exact = math.sqrt(math.fsum(np.concatenate([t.real, t.imag], axis=None) ** 2))
            assert t_norm == pytest.approx(exact * np.abs(sys.T).max(), rel=1e-15, abs=0.0)
            if k <= 64:
                assert t_norm == pytest.approx(_dense_values(sys)[1], rel=1e-15, abs=0.0)

    def test_largest_parameters_stay_finite(self):
        # Im T - K K* and ||T|| overflow unless formed with care; 2 K_a K_b stays finite
        sys = _chain([1.0 + 1e308j, 1e308 + 1j, 0.5j])
        assert validate(sys).passed and math.isfinite(sys.t_norm)
        assert "T" not in vars(sys)
        assert sys.residual.hex() == _dense_values(sys)[0].hex()

    def test_complex_channel_and_wide_leaves_take_the_dense_path(self, rng):
        y = 0.7
        rotated = LSystem([[0.3 + 1j * y]], [math.sqrt(y) * np.exp(0.4j)], 1)
        a, b = _dense(rng, 2), make_elementary(2j).system
        for leaves in ([b, rotated, b], [b, a, b]):
            sys = _fold(leaves, "left")
            residual, t_norm = sys.residual, sys.t_norm
            assert "T" in vars(sys)
            want = _dense_values(sys)
            assert residual.hex() == want[0].hex() and t_norm.hex() == want[1].hex()
        assert validate(_fold([b, rotated, b], "left")).passed


class TestTransferClosed:
    def test_equal_unit_factors(self):
        prod = coupling_transfer_closed(1j, 1j)
        assert prod.degrees == (2, 2)
        assert_rat_equal(prod, RationalFunction((-1.0, 2j, 1.0), (-1.0, -2j, 1.0)))

    def test_zero_of_first_factor(self):
        assert abs(rat_eval(coupling_transfer_closed(1j, 2j), -1j)) < 1e-15

    def test_mixed_factors_magnitude(self):
        w = rat_eval(coupling_transfer_closed(1 + 1j, 2j), -1j)
        assert abs(abs(w) - 1.0 / (3.0 * math.sqrt(5))) < 1e-14
        c = couple(make_elementary(1 + 1j).system, make_elementary(2j).system)
        assert rel_err(w, transfer_eval(c.system, -1j)) < 1e-13


class TestImpedanceClosed:
    def test_equal_unit_factors(self):
        v = coupling_impedance_closed(1j, 1j)
        assert_rat_equal(v, RationalFunction((0.0, 2.0), (1.0, 0.0, -1.0)))
        oracle = cayley_w_to_v(coupling_transfer_closed(1j, 1j))
        assert_rat_equal(v, oracle)

    def test_value_at_i_for_imaginary_factors(self, rng):
        for _ in range(20):
            a1, a2 = rng.uniform(0.1, 3, 2)
            v = rat_eval(coupling_impedance_closed(1j * a1, 1j * a2), 1j)
            expected = 1j * (a1 + a2) / (1.0 + a1 * a2)
            assert rel_err(v, expected) < 1e-13

    def test_one_plus_i_pair(self):
        v = coupling_impedance_closed(1 + 1j, 1 + 1j)
        expected = RationalFunction((-2.0, 2.0), (0.0, 2.0, -1.0))  # (2z-2)/(2z-z^2)
        assert_rat_equal(v, expected)
        c = couple(make_elementary(1 + 1j).system, make_elementary(1 + 1j).system)
        z = 0.3 + 1.7j
        assert rel_err(rat_eval(v, z), impedance_eval(c.system, z)) < 1e-12

    def test_cayley_consistency_random(self, rng):
        for _ in range(30):
            lam, mu = draw_upper(rng), draw_upper(rng)
            assert_rat_equal(coupling_impedance_closed(lam, mu),
                             cayley_w_to_v(coupling_transfer_closed(lam, mu)), 1e-10)


class TestMultiplicationLaw:
    def test_resolvent_equals_product(self, rng):
        for _ in range(100):
            lam, mu = draw_upper(rng), draw_upper(rng)
            sys1, sys2 = make_elementary(lam).system, make_elementary(mu).system
            c = couple(sys1, sys2)
            for _ in range(3):
                z = draw_z(rng, avoid=(lam, mu))
                prod = transfer_resolvent(sys1, z) * transfer_resolvent(sys2, z)
                assert rel_err(transfer_resolvent(c.system, z), prod) < 1e-10

    def test_block_order_changes_matrix_not_observable(self, rng):
        lam, mu = 0.5 + 1j, -0.3 + 2j
        c12 = couple(make_elementary(lam).system, make_elementary(mu).system)
        c21 = couple(make_elementary(mu).system, make_elementary(lam).system)
        assert not np.allclose(c12.system.T, c21.system.T)
        for _ in range(8):
            z = draw_z(rng, avoid=(lam, mu))
            assert rel_err(transfer_eval(c12.system, z),
                           transfer_eval(c21.system, z)) < 1e-12

    def test_chained_coupling_associative_observable(self, rng):
        lams = (1j, 0.5 + 0.8j, -1 + 1.5j)
        systems = [make_elementary(l).system for l in lams]
        left = couple(couple(systems[0], systems[1]).system, systems[2]).system
        right = couple(systems[0], couple(systems[1], systems[2]).system).system
        assert validate(left).passed and validate(right).passed
        for _ in range(8):
            z = draw_z(rng, avoid=lams)
            assert rel_err(transfer_eval(left, z), transfer_eval(right, z)) < 1e-11

    def test_kappa_multiplicative(self, rng):
        for _ in range(50):
            a1, a2 = rng.uniform(0.05, 0.95, 2)
            c = couple(make_elementary(1j * a1).system, make_elementary(1j * a2).system)
            kappa = classify_at_i(impedance_eval(c.system, 1j)).kappa
            k1 = classify_elementary(1j * a1).kappa
            k2 = classify_elementary(1j * a2).kappa
            assert abs(kappa - k1 * k2) < 1e-12


class TestSelfSkewCoupling:
    def test_block_structure(self):
        block = self_skew_coupling(1 + 1j)
        assert np.allclose(block.system.T, [[1 + 1j, 2j], [0.0, -1 + 1j]])
        assert np.allclose(block.system.K, [1.0, 1.0])
        assert validate(block.system).passed

    def test_unit_imaginary_classifies_at_one(self):
        v = self_skew_impedance_closed(1j)
        assert_rat_equal(v, RationalFunction((0.0, 2.0), (1.0, 0.0, -1.0)))
        cls = classify_at_i(rat_eval(v, 1j))
        assert cls.class_tag.value == "M_hat" and cls.kappa == 0.0

    def test_one_plus_i_value_at_i(self):
        v = self_skew_impedance_closed(1 + 1j)
        assert_rat_equal(v, RationalFunction((0.0, 2.0), (2.0, 0.0, -1.0)))
        assert rel_err(rat_eval(v, 1j), (2.0 / 3.0) * 1j) < 1e-13

    def test_two_i_value_at_i(self):
        block = self_skew_coupling(2j)
        v_i = impedance_eval(block.system, 1j)
        assert rel_err(v_i, 0.8j) < 1e-13

    def test_closed_forms_match_resolvent(self, rng):
        for _ in range(30):
            lam = draw_upper(rng)
            block = self_skew_coupling(lam)
            w, v = self_skew_transfer_closed(lam), self_skew_impedance_closed(lam)
            for _ in range(4):
                z = draw_z(rng, avoid=(lam, -lam.conjugate()))
                assert rel_err(rat_eval(w, z), transfer_resolvent(block.system, z)) < 1e-11
                assert rel_err(rat_eval(v, z), impedance_eval(block.system, z)) < 1e-11

    def test_transfer_is_product_of_companions(self, rng):
        lam = 0.7 + 1.3j
        w = self_skew_transfer_closed(lam)
        from livsic import skew_transfer_closed
        for _ in range(8):
            z = draw_z(rng, avoid=(lam, -lam.conjugate()))
            prod = rat_eval(transfer_closed(lam), z) * rat_eval(skew_transfer_closed(lam), z)
            assert rel_err(rat_eval(w, z), prod) < 1e-12

    def test_impedance_splits_into_symmetric_atoms(self, rng):
        for lam in (1j, 1 + 1j, 2j, draw_upper(rng)):
            m = partial_fractions_real_poles(self_skew_impedance_closed(lam))
            mod = math.hypot(lam.real, lam.imag)
            assert len(m.atoms) == 2
            (t1, w1), (t2, w2) = m.atoms
            assert abs(t1 + mod) < 1e-10 and abs(t2 - mod) < 1e-10
            assert abs(w1 - lam.imag) < 1e-10 and abs(w2 - lam.imag) < 1e-10


class TestSelfSkewOverflow:
    def test_overflowing_modulus_raises(self):
        # the squares overflow (1e300) or only their sum does (1e154)
        for lam in (1e300 + 1e300j, 1e154 + 1e154j, 1e200 + 1j):
            for form in (self_skew_transfer_closed, self_skew_impedance_closed):
                with pytest.raises(RangeError, match="overflows"):
                    form(lam)

    def test_largest_finite_modulus_kept(self):
        lam = 1e150 + 1e150j
        m2 = lam.real ** 2 + lam.imag ** 2
        assert self_skew_impedance_closed(lam).den.coeffs[0] == -m2
        assert self_skew_transfer_closed(lam).num.coeffs[0] == -m2


class TestPairOverflow:
    @pytest.mark.parametrize("lam, mu", [(1e308 + 1e308j, 1 + 1j), (1e200 + 1e-200j, 1e200 + 1e-200j),
                                         (1e308j, 1e308j)])
    def test_coefficients_past_the_float_range_raise(self, lam, mu):
        # lambda0 mu0, or also lambda0 + mu0, is not finite
        for form in (coupling_transfer_closed, coupling_impedance_closed):
            with pytest.raises(RangeError, match="exceed the float range"):
                form(lam, mu)

    def test_largest_finite_coefficients_kept(self):
        lam, mu = 1e308 + 1e308j, 0.5 + 0.5j
        # lambda0 mu0 = 1e308 i and lambda0 + mu0 = (1e308 + 0.5)(1 + i) are finite
        assert coupling_impedance_closed(lam, mu).num.coeffs == (1e308, -(lam + mu).imag)
        assert coupling_transfer_closed(lam, mu).den.coeffs[:2] == (lam * mu, -(lam + mu))


class TestExplicitSkewForms:
    """The skew closed forms kept explicit equal their derivations at -conj(lambda0)."""

    def test_equal_to_derived_forms(self, rng):
        for lam in [1j, 1 + 1j, 0.5j, -2 + 0.3j] + [draw_upper(rng) for _ in range(40)]:
            mirror = -lam.conjugate()
            assert_rat_equal(skew_impedance_closed(lam), impedance_closed(mirror))
            assert_rat_equal(self_skew_transfer_closed(lam), coupling_transfer_closed(lam, mirror))
            assert_rat_equal(self_skew_impedance_closed(lam), coupling_impedance_closed(lam, mirror))
