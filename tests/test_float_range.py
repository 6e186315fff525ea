"""Typed or finite across the whole float range: parameters and points drawn
from every binade, 2^-1074 to 2^1023, with both signs and in both half-planes.

Every call returns a value or raises a LivsicError or ValueError.  A value
has no NaN part, and an infinite part only where documented (S = +inf).
No call may warn, overflow in Python or divide by zero."""

import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from livsic import (
    FosterSpec,
    FosterSpecError,
    LCStage,
    LSystem,
    LivsicError,
    Netlist,
    RangeError,
    SingularResolventError,
    analysis,
    c_entropy,
    c_entropy_elementary_closed,
    c_entropy_resolvent,
    cayley_w_to_v,
    classify_elementary,
    colligation,
    couple,
    coupling_dissipation_closed,
    coupling_impedance_closed,
    coupling_transfer_closed,
    dissipation_elementary_closed,
    impedance_closed,
    impedance_eval,
    impedance_resolvent,
    make_elementary,
    make_skew_adjoint,
    netlist_to_foster,
    rat_eval,
    self_skew_impedance_closed,
    self_skew_transfer_closed,
    skew_coupling_circuit,
    skew_coupling_foster,
    skew_impedance_closed,
    skew_transfer_closed,
    synthesize,
    transfer_closed,
    transfer_eval,
    transfer_resolvent,
)

EVALUATORS = (transfer_eval, impedance_eval, transfer_resolvent, impedance_resolvent)
ELEMENTARY_FORMS = (transfer_closed, impedance_closed, skew_transfer_closed, skew_impedance_closed,
                    self_skew_transfer_closed, self_skew_impedance_closed)
PAIR_FORMS = (coupling_transfer_closed, coupling_impedance_closed)

# the witnesses the scan first found: a stacked matvec that overflowed or read inf * 0
# with a numpy warning, a shift Re t - z past the float range, at n = 1 and n = 2, and
# a closed form whose coefficient's modulus exceeds the float range
MATVEC = [(-5.4251268424768405e-201 + 8.864879005174127e+199j,
           1.63706275119553e-310 + 1.2426215582438536e-200j),
          (1.39956338119976e-310 + 5.401366173665223e+149j,
           1.8897642885701435e-300 + 5.685439957104635e-301j)]
SHIFT_LAMBDA = 1.8934312710499856e+307 + 1.4894733227450205e+150j
SHIFT_Z = -1.6326334442605043e+308 - 1.505319636843959e+160j
SHIFT_PAIR = (-16295285794.490862 + 1.3912102619000707e+100j,
              1.7617712128555481e+308 + 1.3177534357694472e-160j)
SHIFT_PAIR_Z = -1.2642911133788518e+308 + 9.854248793688372e-101j
BIG = -1.7745256138009753e+308 + 1.0960984998326868e+308j
BIG_PAIR = (1.5495188283640145e+308 + 1.4208405207903537e+308j, 1e-320j)


def _binade(rng, positive=False):
    """A float of a binade drawn uniformly from 2^-1074 to 2^1023, of either sign."""
    x = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-1074, 1024)))
    return x if positive or rng.random() < 0.5 else -x


def _upper(rng):
    return complex(_binade(rng), _binade(rng, positive=True))


def _numbers(v):
    if isinstance(v, (int, float, complex)):
        yield complex(v)
    elif dataclasses.is_dataclass(v):
        for f in dataclasses.fields(v):
            yield from _numbers(getattr(v, f.name))
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _numbers(x)


def _typed_or_finite(fn, *args, inf_ok=False):
    """fn(*args) with every warning an error: its value, or None where it
    raised a typed error; fails on any other exception and on a value with a
    NaN part, or an infinite part unless ``inf_ok``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = fn(*args)
    except (LivsicError, ValueError):
        return None
    except Exception as exc:  # every other exception is the failure under test
        pytest.fail(f"{fn.__name__}{args}: {type(exc).__name__}: {exc}")
    bad = [x for x in _numbers(v) if cmath.isnan(x) or cmath.isinf(x) and not inf_ok]
    assert not bad, (fn.__name__, args, v)
    return v


@pytest.mark.parametrize("seed", [0, 1])
def test_every_call_is_typed_or_finite(seed):
    rng = np.random.default_rng([seed, 10])
    for _ in range(150):
        lam, mu = _upper(rng), _upper(rng)
        z = complex(_binade(rng), _binade(rng))
        systems = [make_elementary(lam).system, make_skew_adjoint(lam).system]
        coupled = _typed_or_finite(couple, systems[0], make_elementary(mu).system)
        if coupled is not None:
            systems.append(coupled.system)
        for sys in systems:
            for ev in EVALUATORS:
                _typed_or_finite(ev, sys, z)
            _typed_or_finite(c_entropy, sys, inf_ok=True)
            _typed_or_finite(c_entropy_resolvent, sys, inf_ok=True)
        forms = [_typed_or_finite(form, lam) for form in ELEMENTARY_FORMS]
        forms += [_typed_or_finite(form, lam, mu) for form in PAIR_FORMS]
        for r in forms:
            if r is not None:
                _typed_or_finite(rat_eval, r, z)
        _typed_or_finite(classify_elementary, lam)
        _typed_or_finite(skew_coupling_circuit, lam)
        spec = _typed_or_finite(FosterSpec, _binade(rng, True), [(_binade(rng, True), _binade(rng, True))])
        if spec is not None:
            net = _typed_or_finite(synthesize, spec)
            if net is not None:
                _typed_or_finite(netlist_to_foster, net)
        net = _typed_or_finite(Netlist, None, (LCStage(_binade(rng, True), _binade(rng, True)),))
        if net is not None:
            spec = _typed_or_finite(netlist_to_foster, net)
            if spec is not None:
                _typed_or_finite(synthesize, spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam, z", MATVEC)
def test_an_overflowing_matvec_is_refused(lam, z):
    sys = make_elementary(lam).system
    for ev in (impedance_eval, impedance_resolvent):
        with pytest.raises(SingularResolventError, match=r"V\(z\) at z=.* overflows the float range"):
            ev(sys, z)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_shift_is_refused():
    elem = make_elementary(SHIFT_LAMBDA).system
    pair = couple(make_elementary(SHIFT_PAIR[0]).system, make_elementary(SHIFT_PAIR[1]).system).system
    for sys, z in ((elem, SHIFT_Z), (pair, SHIFT_PAIR_Z)):
        for ev, op in ((transfer_resolvent, "T - zI"), (impedance_resolvent, "Re T - zI"),
                       (impedance_eval, "Re T - zI")):
            with pytest.raises(RangeError) as info:
                ev(sys, z)
            assert str(info.value) == (f"{op} at z={z} has an entry beyond the float range "
                                       f"(n={sys.dim})")
        # an infinite z keeps the limits at infinity, W = 1 and V = 0
        assert transfer_resolvent(sys, complex(-math.inf, 0.0)) == 1
        assert impedance_resolvent(sys, complex(-math.inf, 0.0)) == 0


def test_an_overflowing_shift_raises_at_its_stack_position(monkeypatch):
    elem = make_elementary(SHIFT_LAMBDA).system
    solve, solves = np.linalg.solve, []

    def spy(a, *args, **kwargs):
        solves.append(a.shape[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    # the slices after the shift that leaves the range reach no LAPACK
    with pytest.raises(RangeError):
        colligation._solve_guarded([(elem, [1j]), (elem, [SHIFT_Z, 2j, 3j])], True)
    assert solves == [1]
    # an earlier singular slice, or an earlier NaN, raises its own error first
    with pytest.raises(SingularResolventError, match="numerically singular"):
        transfer_resolvent(elem, [1j, SHIFT_LAMBDA, SHIFT_Z])
    with pytest.raises(LivsicError, match="NaN part"):
        transfer_resolvent(elem, [1j, complex(math.nan, 1.0), SHIFT_Z])
    with pytest.raises(RangeError):
        transfer_resolvent(elem, [SHIFT_Z, SHIFT_LAMBDA])


@pytest.mark.filterwarnings("error")
def test_a_modulus_past_the_float_range_builds_its_closed_form():
    forms = [transfer_closed(BIG), skew_transfer_closed(BIG), coupling_transfer_closed(*BIG_PAIR)]
    for r in forms:
        # the pole guard is TAU_POLE * |c| of the largest coefficient, formed from c/4
        assert 1e295 < r._horner[2] < math.inf
        assert cmath.isfinite(rat_eval(r, 1j))
        # the Cayley map's own coefficients overflow: a RangeError naming the first of them
        with pytest.raises(RangeError, match=r"^cayley_w_to_v: the z\^\d coefficient of "
                                             r"num\(W\) - den\(W\) exceeds the float range: infj$"):
            cayley_w_to_v(r)
    # the closed coupling D, which the CLI's couple prints beside the closed forms, is finite
    assert 0.0 < coupling_dissipation_closed(*BIG_PAIR) <= 1.0
    for fn in (skew_coupling_foster, skew_coupling_circuit):
        with pytest.raises(RangeError, match=r"\|lambda0\| .* exceeds the float range"):
            fn(BIG)


@pytest.mark.filterwarnings("error")
def test_elementary_entropy_and_dissipation_past_the_float_range():
    # hypot(x, 1 + y) and hypot(x, 1 - y) exceed the float range, and D and S are subnormal
    lam = BIG_PAIR[0]
    x, y = Fraction(lam.real), Fraction(lam.imag)
    ulp = Fraction(math.ulp(0.0))
    d = dissipation_elementary_closed(lam)
    assert d > 0.0 and abs(Fraction(d) - 4 * y / (x * x + (1 + y) ** 2)) <= ulp
    # S = (1/2) log1p(u) for u = 4y/(x^2 + (1 - y)^2), about 1.3e-308: u/2 to far below an ulp
    s = c_entropy_elementary_closed(lam)
    assert s > 0.0 and abs(Fraction(s) - 2 * y / (x * x + (1 - y) ** 2)) <= ulp
    # the J = -1 system of conj(lam): there 4 Im t and the sum under it overflow together
    mirror = LSystem([[lam.conjugate()]], [math.sqrt(lam.imag)], -1)
    s_mirror = c_entropy(mirror)
    assert s_mirror < 0.0 and abs(Fraction(s_mirror) + 2 * y / (x * x + (1 + y) ** 2)) <= ulp
    # over a chain's diagonal, an entry whose h is finite keeps its own bytes
    other = 0.5 + 1j
    both = analysis._elementary_entropy(np.array([other.real, lam.real]),
                                        np.array([other.imag, lam.imag]))
    assert both.tolist() == [c_entropy_elementary_closed(other), s]


@pytest.mark.filterwarnings("error")
def test_a_resonance_whose_lc_underflows():
    stage = LCStage(1e-200, 1e-200)
    assert stage.resonance == 1.0 / (math.sqrt(1e-200) * math.sqrt(1e-200))
    assert 0.99e200 < stage.resonance < 1.01e200
    # b = 1e200 is the true resonance, and b^2 exceeds the float range
    with pytest.raises(FosterSpecError, match="b\\^2 overflows"):
        netlist_to_foster(Netlist(None, (stage,)))
    # every other resonance keeps the plain formula's bytes
    for ind, cap in ((2.0, 3.0), (1e-150, 1e-150), (1e300, 1e-300)):
        assert LCStage(ind, cap).resonance == 1.0 / math.sqrt(ind * cap)
