"""Foster data, representing measures, classification, LC synthesis."""

import dataclasses
import functools
import math
import pickle
import re
import sys

import pytest
from conftest import assert_rat_equal, assert_rat_value, rat_sum, rel_err

from livsic import (
    AtomicMeasure,
    DomainError,
    DonoghueClass,
    FosterSpec,
    FosterSpecError,
    LCStage,
    Netlist,
    NotHerglotzAtomicError,
    NotHerglotzError,
    PoleError,
    RangeError,
    RationalFunction,
    classify_at_i,
    classify_foster,
    emit_netlist,
    foster_mass,
    foster_to_herglotz,
    measure_atoms,
    netlist_to_foster,
    partial_fractions_real_poles,
    positive_real_z,
    rat_eval,
    self_skew_impedance_closed,
    skew_coupling_circuit,
    skew_coupling_foster,
    synthesize,
)
from livsic.ratfun import _sample_points


def random_spec(rng, max_stages=4, with_origin=True):
    a0 = rng.uniform(0.1, 3.0) if with_origin and rng.uniform() > 0.3 else 0.0
    n = int(rng.integers(0 if a0 > 0 else 1, max_stages + 1))
    bs = sorted(rng.uniform(0.2, 5.0, n))
    while any(abs(b1 - b2) < 1e-3 for b1, b2 in zip(bs, bs[1:])):
        bs = sorted(rng.uniform(0.2, 5.0, n))
    return FosterSpec(a0, [(rng.uniform(0.1, 3.0), b) for b in bs])


def spec_with(rng, m, a0):
    """m stages with distinct resonances in [0.2, 5] and weights in [0.1, 3]."""
    bs = rng.uniform(0.2, 5.0, m)
    return FosterSpec(a0, [(rng.uniform(0.1, 3.0), b) for b in bs])


def coefficient_fold(spec, sign):
    """sign*a0/z + sum a z/(b^2 + sign*z^2), folded pairwise with rat_sum."""
    terms = [RationalFunction((sign * spec.a0,), (0.0, 1.0))] if spec.a0 > 0 else []
    terms += [RationalFunction((0.0, s.a), (s.b * s.b, 0.0, sign)) for s in spec.stages]
    return functools.reduce(rat_sum, terms) if terms else RationalFunction((0.0,), (1.0,))


def fold_tolerance(r):
    """The fold's own rounding, relative, at worst over the sample points: its
    coefficients carry no cancellation, so Horner's rule on them errs by at most
    a few n eps times sum |c_k||z|^k / |p(z)| for numerator and denominator
    (Higham 2002, sec. 5.1).  It reaches 1e-3 at 24 stages."""
    def cond(p, z):
        if p.is_zero:
            return 0.0
        return sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs)) / abs(p(z))

    n = len(r.den.coeffs)
    return max(4 * n * sys.float_info.epsilon * (cond(r.num, z) + cond(r.den, z))
               for z in _sample_points())


class TestFosterSpec:
    def test_invariants(self):
        with pytest.raises(FosterSpecError):
            FosterSpec(-1.0)
        with pytest.raises(FosterSpecError):
            FosterSpec(0.0, [(0.0, 1.0)])
        with pytest.raises(FosterSpecError):
            FosterSpec(0.0, [(1.0, -1.0)])
        with pytest.raises(FosterSpecError):
            FosterSpec(0.0, [(1.0, 1.0), (2.0, 1.0)])

    @pytest.mark.parametrize("a0, stages, bad", [
        (math.nan, [], "nan"), (math.inf, [], "inf"),
        (1.0, [(math.nan, 1.0)], "nan"), (1.0, [(math.inf, 1.0)], "inf"),
        (0.0, [(1.0, math.nan)], "nan"), (0.0, [(1.0, 2.0), (1.0, math.inf)], "inf"),
    ])
    def test_rejects_non_finite_data(self, a0, stages, bad):
        with pytest.raises(FosterSpecError, match=f"finite.*{bad}"):
            FosterSpec(a0, stages)

    @pytest.mark.parametrize("b", [1e-200, 1e-155, 1e-160, 1e-154])
    def test_rejects_resonance_whose_square_is_not_normal(self, b):
        # 1e-200**2 underflows to 0; 1e-155**2 is subnormal, silently imprecise
        with pytest.raises(FosterSpecError, match=rf"stage 2 resonance {b!r} is too small"):
            FosterSpec(0.0, [(1.0, 2.0), (1.0, b)])

    @pytest.mark.parametrize("b", [1e200, 1e155, 1.35e154])
    def test_rejects_resonance_whose_square_overflows(self, b):
        assert b * b == math.inf
        with pytest.raises(FosterSpecError, match=re.escape(f"stage 2 resonance {b!r} is too large")):
            FosterSpec(0.0, [(1.0, 2.0), (1.0, b)])

    def test_accepts_large_resonance_whose_square_is_finite(self):
        b = 1e150
        spec = FosterSpec(0.0, [(1.0, b)])
        assert synthesize(spec).stages[0].inductance == 1.0 / (b * b)
        assert classify_foster(spec).a > 0.0

    def test_accepts_resonance_whose_square_is_normal(self):
        b = 2e-154
        assert b * b >= sys.float_info.min
        spec = FosterSpec(0.0, [(1.0, b)])
        assert synthesize(spec).stages[0].inductance == 1.0 / (b * b)


class TestFosterToHerglotz:
    def test_pure_capacitor(self):
        m = foster_to_herglotz(FosterSpec(1.0))
        assert_rat_equal(m, RationalFunction((-1.0,), (0.0, 1.0)))

    def test_single_stage(self):
        m = foster_to_herglotz(FosterSpec(0.0, [(1.0, 1.0)]))
        assert_rat_equal(m, RationalFunction((0.0, 1.0), (1.0, 0.0, -1.0)))
        assert rel_err(rat_eval(m, 1j), 0.5j) < 1e-14

    def test_value_at_i(self):
        spec = FosterSpec(1.0, [(2.0, 1.0)])
        assert rel_err(rat_eval(foster_to_herglotz(spec), 1j), 2j) < 1e-14
        assert abs(foster_mass(spec) - 2.0) < 1e-15

    def test_matches_own_measure(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            m = foster_to_herglotz(spec)
            atoms = measure_atoms(spec)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            assert abs(rat_eval(m, z) - rat_eval(atoms, z)) < 1e-10

    def test_partial_fractions_recover_atoms(self):
        spec = FosterSpec(1.0, [(2.0, 1.0), (1.0, 2.0)])
        extracted = partial_fractions_real_poles(foster_to_herglotz(spec))
        expected = measure_atoms(spec)
        assert len(extracted.atoms) == len(expected.atoms)
        for (t1, w1), (t2, w2) in zip(extracted.atoms, expected.atoms):
            assert abs(t1 - t2) < 1e-10 and abs(w1 - w2) < 1e-10


class TestPoleResidueRecord:
    """M and Z are recorded by their poles and weights alone; they are the
    functions of the pairwise coefficient fold, compared by value."""

    @pytest.mark.parametrize("build, sign", [(foster_to_herglotz, -1.0), (positive_real_z, 1.0)])
    def test_values_are_the_folds(self, rng, build, sign):
        for m in range(25):
            for a0 in (0.0, rng.uniform(0.1, 3.0)):
                spec = spec_with(rng, m, a0)
                ref = coefficient_fold(spec, sign)
                assert_rat_equal(build(spec), ref, fold_tolerance(ref))

    def test_atoms_are_the_measure_at_24_stages(self, rng):
        for a0 in (0.0, 1.5):
            spec = spec_with(rng, 24, a0)
            m = foster_to_herglotz(spec)
            assert partial_fractions_real_poles(m).atoms == measure_atoms(spec).atoms

    def test_z_matches_the_direct_sum_at_24_stages(self, rng):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for a0 in (0.0, 0.7):
            spec = spec_with(rng, 24, a0)
            z = positive_real_z(spec)
            for _ in range(20):
                p = complex(rng.uniform(0.01, 2.0), rng.uniform(-5.0, 5.0))
                direct = (a0 / p if a0 > 0 else 0.0) + sum(
                    s.a * p / (s.b * s.b + p * p) for s in spec.stages)
                pm = mp.mpc(p)
                truth = (a0 / pm if a0 > 0 else 0) + mp.fsum(
                    mp.mpf(s.a) * pm / (mp.mpf(s.b) ** 2 + pm * pm) for s in spec.stages)
                got = rat_eval(z, p)
                assert abs(got - direct) <= 1e-13 * abs(direct)
                assert abs(mp.mpc(got) - truth) <= 1e-13 * abs(truth)

    def test_pole_error_on_every_pole(self):
        spec = FosterSpec(1.0, [(2.0, 0.5), (1.0, 3.0)])
        m, z = foster_to_herglotz(spec), positive_real_z(spec)
        for b in (0.0, 0.5, -0.5, 3.0, -3.0):
            with pytest.raises(PoleError):
                rat_eval(m, b)
            with pytest.raises(PoleError):
                rat_eval(z, 1j * b)
        # no pole at the origin without a capacitor
        assert rat_eval(foster_to_herglotz(FosterSpec(0.0, [(2.0, 0.5)])), 0.0) == 0.0

    def test_close_resonances_give_exact_atoms(self):
        # the companion-matrix roots of the expanded M called these a repeated pole
        spec = FosterSpec(0.0, [(1.0, 1.0), (2.0, 1.0 + 1e-9)])
        atoms = partial_fractions_real_poles(foster_to_herglotz(spec)).atoms
        assert atoms == measure_atoms(spec).atoms
        assert atoms == ((-1.000000001, 1.0), (-1.0, 0.5), (1.0, 0.5), (1.000000001, 1.0))

    @pytest.mark.parametrize("a0, stages", [(0.0, [(1.0, 2.0)]), (1.0, [])])
    def test_z_has_no_atoms(self, a0, stages):
        # complex poles, or the real pole at 0 with weight -a0
        why = "complex pole" if stages else "weight -1.0 at t=0.0 not positive real"
        with pytest.raises(NotHerglotzAtomicError, match=why):
            partial_fractions_real_poles(positive_real_z(FosterSpec(a0, stages)))

    def test_empty_spec_is_the_zero_function(self):
        spec = FosterSpec(0.0)
        for r in (foster_to_herglotz(spec), positive_real_z(spec)):
            assert rat_eval(r, 1j) == 0j and r.atoms == ()
        assert partial_fractions_real_poles(foster_to_herglotz(spec)).atoms == ()

    def test_weight_whose_half_underflows_is_a_typed_error(self):
        spec = FosterSpec(0.0, [(1.0, 2.0), (5e-324, 1.0)])
        # twice over: a failed build of the spec's measure caches nothing
        for build in (measure_atoms, foster_to_herglotz, positive_real_z) * 2:
            with pytest.raises(FosterSpecError, match=r"stage 2 weight 5e-324 is too small"):
                build(spec)


class TestSharedMeasure:
    """A spec builds its measure once, on first read, and every reader shares it."""

    @staticmethod
    def count_constructions(monkeypatch):
        calls = []
        init = AtomicMeasure.__init__

        def counted(self, atoms):
            calls.append(1)
            init(self, atoms)

        monkeypatch.setattr(AtomicMeasure, "__init__", counted)
        return calls

    def test_one_measure_per_spec(self, rng, monkeypatch):
        specs = [spec_with(rng, m, a0) for m in (0, 1, 5, 24) for a0 in (0.0, 1.5)]
        calls = self.count_constructions(monkeypatch)
        for k, spec in enumerate(specs, 1):
            measure_atoms(spec)
            positive_real_z(spec)
            foster_to_herglotz(spec)
            partial_fractions_real_poles(foster_to_herglotz(spec))
            assert len(calls) == k

    def test_readers_share_the_measure(self, rng):
        spec = spec_with(rng, 6, 0.7)
        m = measure_atoms(spec)
        assert measure_atoms(spec) is m
        r = foster_to_herglotz(spec)
        assert r is m and partial_fractions_real_poles(r) is m

    def test_value_semantics_ignore_the_measure(self, rng):
        spec = spec_with(rng, 4, 1.5)
        fresh = FosterSpec(spec.a0, spec.stages)
        m = measure_atoms(spec)
        assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert measure_atoms(back).atoms == m.atoms

    def test_replace_builds_a_new_measure(self, rng):
        spec = spec_with(rng, 3, 1.5)
        m = measure_atoms(spec)
        other = dataclasses.replace(spec, a0=0.0)
        assert "_measure" not in vars(other)
        assert measure_atoms(other) is not m
        assert measure_atoms(other).atoms == m.atoms[:3] + m.atoms[4:]


class TestMeasureAtoms:
    def test_with_origin_and_stage(self):
        m = measure_atoms(FosterSpec(1.0, [(2.0, 1.0)]))
        assert m.atoms == ((-1.0, 1.0), (0.0, 1.0), (1.0, 1.0))
        assert abs(rat_eval(m, 1j).imag - 2.0) < 1e-15

    def test_origin_only(self):
        m = measure_atoms(FosterSpec(1.0))
        assert m.atoms == ((0.0, 1.0),)
        assert abs(rat_eval(m, 1j).imag - 1.0) < 1e-15

    def test_symmetry_condition(self, rng):
        for _ in range(30):
            m = measure_atoms(random_spec(rng))
            # the skew moment, Re of the Cauchy transform at i
            assert abs(rat_eval(m, 1j).real) <= 1e-14


class TestClassifyFoster:
    def test_trichotomy(self):
        assert classify_foster(FosterSpec(1.0)).class_tag is DonoghueClass.M_HAT
        above = classify_foster(FosterSpec(1.0, [(2.0, 1.0)]))
        assert above.class_tag is DonoghueClass.M_HAT_KAPPA_INVERSE
        assert abs(above.kappa - 1.0 / 3.0) < 1e-15
        below = classify_foster(FosterSpec(0.0, [(1.0, 1.0)]))
        assert below.class_tag is DonoghueClass.M_HAT_KAPPA
        assert abs(below.kappa - 1.0 / 3.0) < 1e-15

    def test_mass_below_the_float_range(self):
        # a/(b^2 + 1), about 1e-500, is positive but underflows to 0
        with pytest.raises(RangeError, match="below the float range"):
            classify_foster(FosterSpec(0.0, [(1e-300, 1e100)]))

    def test_mass_beyond_the_float_range(self):
        # M is Herglotz; only its mass, about 3e308, overflows
        with pytest.raises(RangeError, match="exceeds the float range"):
            classify_foster(FosterSpec(1.5e308, [(1.5e308, 1e-150)]))

    def test_empty_spec_is_not_herglotz(self):
        # M = 0 identically
        with pytest.raises(NotHerglotzError, match="is not positive"):
            classify_foster(FosterSpec(0.0, []))

    def test_agrees_with_assembled_function(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            direct = classify_foster(spec)
            via_eval = classify_at_i(rat_eval(foster_to_herglotz(spec), 1j))
            assert direct.class_tag is via_eval.class_tag
            assert abs(direct.a - via_eval.a) < 1e-12


class TestSynthesize:
    def test_origin_and_stage(self):
        net = synthesize(FosterSpec(1.0, [(2.0, 1.0)]))
        assert net.series_capacitor == 1.0
        assert net.stages[0].inductance == 2.0
        assert net.stages[0].capacitance == 0.5

    def test_no_origin_weight(self):
        net = synthesize(FosterSpec(0.0, [(1.0, 1.0)]))
        assert net.series_capacitor is None
        assert net.stages[0].inductance == 1.0 and net.stages[0].capacitance == 1.0

    def test_capacitor_only(self):
        net = synthesize(FosterSpec(4.0))
        assert net.series_capacitor == 0.25 and net.stages == ()

    def test_resonances(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            net = synthesize(spec)
            for stage, lc in zip(spec.stages, net.stages):
                assert abs(lc.resonance - stage.b) < 1e-12 * max(1.0, stage.b)

    def test_round_trip(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            back = netlist_to_foster(synthesize(spec))
            assert abs(back.a0 - spec.a0) < 1e-12
            for s1, s2 in zip(spec.stages, back.stages):
                assert abs(s1.a - s2.a) < 1e-12 and abs(s1.b - s2.b) < 1e-12

    @pytest.mark.parametrize("c0, stages", [
        (0.0, ()), (math.nan, ()), (math.inf, ()),
        (None, ((-1.0, 1.0),)), (None, ((math.nan, 1.0),)), (1.0, ((1.0, math.inf),)),
    ])
    def test_netlist_rejects_non_finite_or_nonpositive_values(self, c0, stages):
        with pytest.raises(FosterSpecError, match="finite and positive"):
            Netlist(c0, tuple(LCStage(*s) for s in stages))

    @pytest.mark.parametrize("c0, stages", [
        (5e-324, ()), (None, ((1e-310, 1.0),)), (1.0, ((1.0, 2.0), (1.0, 2e-308))),
    ])
    def test_netlist_rejects_subnormal_values(self, c0, stages):
        with pytest.raises(FosterSpecError, match="below the smallest normal float"):
            Netlist(c0, tuple(LCStage(*s) for s in stages))

    def test_netlist_accepts_the_smallest_normal_value(self):
        tiny = sys.float_info.min
        net = Netlist(tiny, (LCStage(tiny, tiny),))
        assert net.series_capacitor == net.stages[0].inductance == tiny

    def test_synthesis_with_subnormal_inductance_raises(self):
        # b^2 is finite, but a/b^2 = 1/1.44e308 is subnormal
        spec = FosterSpec(0.0, [(1.0, 1.2e154), (1.0, 1.3e154)])
        with pytest.raises(FosterSpecError, match=r"component value 6\.94.*e-309 is below"):
            synthesize(spec)


class TestPositiveRealZ:
    def test_pure_capacitor(self):
        assert_rat_equal(positive_real_z(FosterSpec(1.0)),
                         RationalFunction((1.0,), (0.0, 1.0)))

    def test_single_stage(self):
        z = positive_real_z(FosterSpec(0.0, [(1.0, 1.0)]))
        assert_rat_equal(z, RationalFunction((0.0, 1.0), (1.0, 0.0, 1.0)))
        assert rel_err(rat_eval(z, 1.0), 0.5) < 1e-14

    def test_sum_of_branches(self, rng):
        spec = FosterSpec(1.0, [(2.0, 1.0)])
        z = positive_real_z(spec)
        m = foster_to_herglotz(spec)
        for _ in range(10):
            p = complex(rng.uniform(0.1, 3), rng.uniform(-3, 3))
            assert rel_err(rat_eval(z, p), rat_eval(m, 1j * p) / 1j) < 1e-12

    def test_positive_real_property(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            z = positive_real_z(spec)
            for _ in range(50):
                p = complex(rng.uniform(0.01, 4), rng.uniform(-4, 4))
                assert rat_eval(z, p).real > 0

    def test_real_on_positive_axis_imaginary_on_axis(self, rng):
        z = positive_real_z(FosterSpec(0.5, [(1.0, 2.0), (3.0, 0.7)]))
        for _ in range(20):
            x = rng.uniform(0.1, 5)
            assert abs(rat_eval(z, x).imag) < 1e-13
            y = rng.uniform(0.1, 5)
            if min(abs(y - 2.0), abs(y - 0.7)) > 0.05:
                assert abs(rat_eval(z, 1j * y).real) < 1e-12


class TestSkewCouplingCircuit:
    def test_one_plus_i(self):
        net = skew_coupling_circuit(1 + 1j)
        assert abs(net.stages[0].inductance - 0.5) < 1e-15
        assert abs(net.stages[0].capacitance - 1.0) < 1e-15
        assert abs(net.stages[0].resonance - math.sqrt(2)) < 1e-12

    def test_unit_imaginary(self):
        net = skew_coupling_circuit(1j)
        assert net.stages[0].inductance == 1.0 and net.stages[0].capacitance == 1.0

    def test_two_i(self):
        net = skew_coupling_circuit(2j)
        assert abs(net.stages[0].inductance - 0.5) < 1e-15
        assert abs(net.stages[0].capacitance - 0.5) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            skew_coupling_circuit(1.0 - 1j)

    def test_foster_data_reproduces_coupling_impedance(self, rng):
        for lam in (1j, 1 + 1j, 2j, complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))):
            spec = skew_coupling_foster(lam)
            assert_rat_equal(foster_to_herglotz(spec),
                             self_skew_impedance_closed(lam), 1e-12)
            # netlist stage resonates at |lambda0| under either weight convention
            net = skew_coupling_circuit(lam)
            mod = math.hypot(lam.real, lam.imag)
            assert abs(net.stages[0].resonance - mod) < 1e-12 * max(1.0, mod)
            assert abs(synthesize(spec).stages[0].resonance - mod) < 1e-12 * max(1.0, mod)


    def test_half_the_foster_stage_weight(self, rng):
        # the circuit is the synthesis of the Foster data at half the weight
        for lam in (1j, 1 + 1j, 2j, -0.5 + 0.2j, complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))):
            (half,) = netlist_to_foster(skew_coupling_circuit(lam)).stages
            (full,) = skew_coupling_foster(lam).stages
            assert rel_err(half.a, full.a / 2.0) <= 1e-15
            assert rel_err(half.b, full.b) <= 1e-15


class TestEmitNetlist:
    def test_full_chain(self):
        text = emit_netlist(synthesize(FosterSpec(1.0, [(2.0, 1.0)])))
        lines = text.splitlines()
        assert lines == [
            "C0 n0 n1 1.00000000000",
            "L1 n1 n2 2.00000000000",
            "C1 n1 n2 0.500000000000",
            ".end",
        ]
        assert len(lines) == 4
        assert text.endswith(".end\n") and "\r" not in text

    def test_capacitor_only(self):
        text = emit_netlist(synthesize(FosterSpec(4.0)))
        assert text == "C0 n0 n1 0.250000000000\n.end\n"

    def test_skew_circuit_unit(self):
        text = emit_netlist(skew_coupling_circuit(1j))
        assert text == "L1 n0 n1 1.00000000000\nC1 n0 n1 1.00000000000\n.end\n"

    def test_stage_count_structure(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            text = emit_netlist(synthesize(spec))
            lines = text.splitlines()
            expected = (1 if spec.a0 > 0 else 0) + 2 * len(spec.stages) + 1
            assert len(lines) == expected and lines[-1] == ".end"
