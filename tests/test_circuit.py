"""Foster data, representing measures, classification, LC synthesis."""

import math

import pytest
from conftest import assert_rat_equal, assert_rat_value, rel_err

from livsic import (
    DomainError,
    DonoghueClass,
    FosterSpec,
    FosterSpecError,
    LCStage,
    Netlist,
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


def random_spec(rng, max_stages=4, with_origin=True):
    a0 = rng.uniform(0.1, 3.0) if with_origin and rng.uniform() > 0.3 else 0.0
    n = int(rng.integers(0 if a0 > 0 else 1, max_stages + 1))
    bs = sorted(rng.uniform(0.2, 5.0, n))
    while any(abs(b1 - b2) < 1e-3 for b1, b2 in zip(bs, bs[1:])):
        bs = sorted(rng.uniform(0.2, 5.0, n))
    return FosterSpec(a0, [(rng.uniform(0.1, 3.0), b) for b in bs])


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
            assert abs(rat_eval(m, z) - atoms.cauchy_transform(z)) < 1e-10

    def test_partial_fractions_recover_atoms(self):
        spec = FosterSpec(1.0, [(2.0, 1.0), (1.0, 2.0)])
        extracted = partial_fractions_real_poles(foster_to_herglotz(spec))
        expected = measure_atoms(spec)
        assert len(extracted.atoms) == len(expected.atoms)
        for (t1, w1), (t2, w2) in zip(extracted.atoms, expected.atoms):
            assert abs(t1 - t2) < 1e-10 and abs(w1 - w2) < 1e-10


class TestMeasureAtoms:
    def test_with_origin_and_stage(self):
        m = measure_atoms(FosterSpec(1.0, [(2.0, 1.0)]))
        assert m.atoms == ((-1.0, 1.0), (0.0, 1.0), (1.0, 1.0))
        assert abs(m.poisson_mass() - 2.0) < 1e-15

    def test_origin_only(self):
        m = measure_atoms(FosterSpec(1.0))
        assert m.atoms == ((0.0, 1.0),)
        assert abs(m.poisson_mass() - 1.0) < 1e-15

    def test_symmetry_condition(self, rng):
        for _ in range(30):
            m = measure_atoms(random_spec(rng))
            assert abs(m.skew_moment()) <= 1e-14


class TestClassifyFoster:
    def test_trichotomy(self):
        assert classify_foster(FosterSpec(1.0)).class_tag is DonoghueClass.M_HAT
        above = classify_foster(FosterSpec(1.0, [(2.0, 1.0)]))
        assert above.class_tag is DonoghueClass.M_HAT_KAPPA_INVERSE
        assert abs(above.kappa - 1.0 / 3.0) < 1e-15
        below = classify_foster(FosterSpec(0.0, [(1.0, 1.0)]))
        assert below.class_tag is DonoghueClass.M_HAT_KAPPA
        assert abs(below.kappa - 1.0 / 3.0) < 1e-15

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
