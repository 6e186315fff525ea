"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion.
"""

import math
from contextlib import contextmanager

import numpy as np
from conftest import draw_upper, draw_z, rel_err

import livsic as lv

INF = float("inf")


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} ({desc}): FAIL")
        raise
    print(f"criterion {n:2d} ({desc}): PASS")


def test_criterion_01_unit_imaginary_goldens():
    with criterion(1, "unit-imaginary goldens"):
        w = lv.transfer_closed(1j)
        v = lv.impedance_closed(1j)
        assert lv.rat_sampled_equal(w, lv.RationalFunction((1j, 1.0), (-1j, 1.0)), 1e-12)
        assert lv.rat_sampled_equal(v, lv.RationalFunction((-1.0,), (0.0, 1.0)), 1e-12)
        sys = lv.make_elementary(1j).system
        assert lv.c_entropy(sys) == INF
        assert lv.c_entropy_elementary_closed(1j) == INF
        assert lv.dissipation_elementary_closed(1j) == 1.0
        assert lv.classify_elementary(1j).class_tag is lv.DonoghueClass.M_HAT


def test_criterion_02_one_plus_i_goldens():
    with criterion(2, "one-plus-i entropy and dissipation"):
        lam = 1 + 1j
        assert abs(lv.c_entropy_elementary_closed(lam) - 0.5 * math.log(5)) <= 1e-12
        assert abs(lv.dissipation_elementary_closed(lam) - 0.8) <= 1e-12
        skew = lv.make_skew_adjoint(lam).system
        assert abs(lv.c_entropy(skew) - 0.5 * math.log(5)) <= 1e-12
        d_skew = 1.0 - math.exp(-2.0 * lv.c_entropy(skew))
        assert abs(d_skew - 0.8) <= 1e-12


def test_criterion_03_multiplication_theorem():
    with criterion(3, "transfer of coupling = product of factors"):
        rng = np.random.default_rng(43)
        for _ in range(100):
            lam, mu = draw_upper(rng), draw_upper(rng)
            sys1, sys2 = lv.make_elementary(lam).system, lv.make_elementary(mu).system
            c = lv.couple(sys1, sys2)
            for _ in range(5):
                z = draw_z(rng, avoid=(lam, mu))
                prod = lv.transfer_eval(sys1, z) * lv.transfer_eval(sys2, z)
                assert rel_err(lv.transfer_eval(c.system, z), prod) <= 1e-10


def test_criterion_04_kappa_multiplicativity():
    with criterion(4, "kappa multiplies under coupling"):
        rng = np.random.default_rng(44)
        for _ in range(100):
            a1, a2 = rng.uniform(0.02, 0.98, 2)
            c = lv.couple(lv.make_elementary(1j * a1).system,
                          lv.make_elementary(1j * a2).system)
            kappa = lv.classify_at_i(lv.impedance_eval(c.system, 1j)).kappa
            k1 = lv.classify_elementary(1j * a1).kappa
            k2 = lv.classify_elementary(1j * a2).kappa
            assert abs(kappa - k1 * k2) <= 1e-12
        c = lv.couple(lv.make_elementary(0.5j).system, lv.make_elementary(0.5j).system)
        spot = lv.classify_at_i(lv.impedance_eval(c.system, 1j)).kappa
        assert abs(spot - 1.0 / 9.0) <= 1e-12


def test_criterion_05_entropy_additivity_and_dissipation():
    with criterion(5, "entropy adds, dissipation composes"):
        rng = np.random.default_rng(45)
        for _ in range(100):
            lam, mu = draw_upper(rng), draw_upper(rng)
            c = lv.couple(lv.make_elementary(lam).system, lv.make_elementary(mu).system)
            s_system = lv.c_entropy(c.system)
            s_sum = lv.compose_entropy(lv.c_entropy_elementary_closed(lam),
                                       lv.c_entropy_elementary_closed(mu))
            assert rel_err(s_system, s_sum) <= 1e-10
            d_composed = lv.compose_dissipation(lv.dissipation_elementary_closed(lam),
                                                lv.dissipation_elementary_closed(mu))
            d_closed = lv.coupling_dissipation_closed(lam, mu)
            d_system = 1.0 - math.exp(-2.0 * s_system)
            assert abs(d_composed - d_closed) <= 1e-10
            assert abs(d_composed - d_system) <= 1e-10
            assert abs(d_closed - d_system) <= 1e-10
        assert abs(lv.coupling_dissipation_closed(2j, 2j) - 80.0 / 81.0) <= 1e-12


def test_criterion_06_self_skew_doubling():
    with criterion(6, "self-skew coupling doubles entropy"):
        rng = np.random.default_rng(46)
        for _ in range(50):
            lam = draw_upper(rng)
            s = lv.c_entropy_elementary_closed(lam)
            d = lv.dissipation_elementary_closed(lam)
            block = lv.self_skew_coupling(lam)
            s_block = lv.c_entropy(block.system)
            assert rel_err(s_block, 2.0 * s) <= 1e-10
            d_block = 1.0 - math.exp(-2.0 * s_block)
            assert abs(d_block - (2.0 * d - d * d)) <= 1e-10
            v_i = lv.impedance_eval(block.system, 1j)
            m2 = lam.real ** 2 + lam.imag ** 2
            assert abs(v_i - 2j * lam.imag / (m2 + 1.0)) <= 1e-12


def test_criterion_07_classification_table():
    with criterion(7, "classification of the four reference points"):
        expected = [
            (1j, lv.DonoghueClass.M_HAT, 0.0),
            (0.3j, lv.DonoghueClass.M_HAT_KAPPA, 7.0 / 13.0),
            (3j, lv.DonoghueClass.M_HAT_KAPPA_INVERSE, 0.5),
            (1 + 1j, lv.DonoghueClass.NONE, None),
        ]
        for lam, tag, kappa in expected:
            got = lv.classify_elementary(lam)
            assert got.class_tag is tag
            if kappa is None:
                assert got.kappa is None
            else:
                assert abs(got.kappa - kappa) <= 1e-12


def test_criterion_08_herglotz_positivity():
    with criterion(8, "impedances map upper half-plane to itself"):
        rng = np.random.default_rng(47)
        systems = []
        for _ in range(34):
            lam, mu = draw_upper(rng), draw_upper(rng)
            systems.append(lv.make_elementary(lam).system)
            systems.append(lv.make_skew_adjoint(lam).system)
            systems.append(lv.couple(lv.make_elementary(lam).system,
                                     lv.make_elementary(mu).system).system)
        for sys in systems[:100]:
            for _ in range(20):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
                assert lv.impedance_eval(sys, z).imag > 0


def test_criterion_09_circuit_suite():
    with criterion(9, "circuit synthesis invariants"):
        rng = np.random.default_rng(48)
        specs = [lv.FosterSpec(1.0), lv.FosterSpec(0.0, [(1.0, 1.0)]),
                 lv.FosterSpec(1.0, [(2.0, 1.0)]),
                 lv.FosterSpec(0.5, [(1.0, 2.0), (3.0, 0.7), (0.25, 1.3)])]
        for spec in specs:
            assert abs(lv.measure_atoms(spec).skew_moment()) <= 1e-14
            net = lv.synthesize(spec)
            back = lv.netlist_to_foster(net)
            assert abs(back.a0 - spec.a0) <= 1e-12
            for s1, s2 in zip(spec.stages, back.stages):
                assert abs(s1.a - s2.a) <= 1e-12 and abs(s1.b - s2.b) <= 1e-12
            for stage, lc in zip(spec.stages, net.stages):
                assert abs(lc.resonance - stage.b) <= 1e-12 * max(1.0, stage.b)
            z = lv.positive_real_z(spec)
            for _ in range(50):
                p = complex(rng.uniform(0.01, 4), rng.uniform(-4, 4))
                assert lv.rat_eval(z, p).real > 0
        net = lv.skew_coupling_circuit(1 + 1j)
        assert abs(net.stages[0].resonance - math.sqrt(2)) <= 1e-12


def test_criterion_10_entropy_surface():
    with criterion(10, "entropy surface grid"):
        xs, ys, s = lv.entropy_surface(-2, 2, 3.0 / 61.0, 3.0, 81, 61)
        assert xs.shape == (81,) and ys.shape == (61,)
        ix0 = int(np.where(xs == 0.0)[0][0])
        if (ys == 1.0).any():
            iy1 = int(np.where(ys == 1.0)[0][0])
            assert np.isinf(s).sum() == 1 and np.isinf(s[iy1, ix0])
        else:
            assert not np.isinf(s).any()
        for iy, y in enumerate(ys):
            if y != 1.0:
                assert int(np.argmax(s[iy])) == ix0
        # the node nearest the singular parameter carries the grid maximum
        iy_near = int(np.argmin(np.abs(ys - 1.0)))
        finite = s[np.isfinite(s)]
        assert s[iy_near, ix0] == finite.max()
        # a grid whose nodes do include the singular parameter exactly
        xs2, ys2, s2 = lv.entropy_surface(-2, 2, 0.25, 3, 81, 12)
        assert (ys2 == 1.0).any()
        iy1 = int(np.where(ys2 == 1.0)[0][0])
        assert np.isinf(s2).sum() == 1 and np.isinf(s2[iy1, ix0])


def test_criterion_11_cayley_and_oracle_equivalence():
    with criterion(11, "closed forms track the resolvent oracle"):
        rng = np.random.default_rng(49)
        for _ in range(50):
            lam, mu = draw_upper(rng), draw_upper(rng)
            cases = [
                (lv.make_elementary(lam).system, lv.transfer_closed(lam),
                 lv.impedance_closed(lam), (lam,)),
                (lv.make_skew_adjoint(lam).system, lv.skew_transfer_closed(lam),
                 lv.skew_impedance_closed(lam), (-lam.conjugate(),)),
                (lv.couple(lv.make_elementary(lam).system,
                           lv.make_elementary(mu).system).system,
                 lv.coupling_transfer_closed(lam, mu),
                 lv.coupling_impedance_closed(lam, mu), (lam, mu)),
                (lv.self_skew_coupling(lam).system,
                 lv.self_skew_transfer_closed(lam),
                 lv.self_skew_impedance_closed(lam), (lam, -lam.conjugate())),
            ]
            for sys, w_closed, v_closed, poles in cases:
                for _ in range(3):
                    z = draw_z(rng, avoid=poles)
                    assert rel_err(lv.rat_eval(w_closed, z),
                                   lv.transfer_eval(sys, z)) <= 1e-10
                    assert rel_err(lv.rat_eval(v_closed, z),
                                   lv.impedance_eval(sys, z)) <= 1e-10
        for _ in range(100):
            dn, dd = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            v = lv.RationalFunction(rng.normal(size=dn) + 1j * rng.normal(size=dn),
                                    rng.normal(size=dd) + 1j * rng.normal(size=dd))
            back = lv.cayley_w_to_v(lv.cayley_v_to_w(v))
            assert lv.rat_sampled_equal(back, v, 1e-12)
