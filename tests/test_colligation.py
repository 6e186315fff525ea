"""Matrix colligations: validation and resolvent evaluation."""

import math
import re

import numpy as np
import pytest
from conftest import draw_upper, draw_z, draw_z_upper, rel_err

from livsic import (
    DimensionError,
    LSystem,
    SingularResolventError,
    colligation,
    couple,
    impedance_eval,
    make_elementary,
    transfer_eval,
    validate,
)


class TestConstruction:
    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            LSystem([[1j, 0.0]], [1.0], 1)
        with pytest.raises(DimensionError):
            LSystem([[1j]], [1.0, 0.0], 1)
        with pytest.raises(DimensionError):
            LSystem([[1j]], [1.0], 2)

    def test_matrices_are_frozen(self):
        sys = make_elementary(1j).system
        with pytest.raises(ValueError):
            sys.T[0, 0] = 0.0

    def test_public_constructor_copies_its_input(self):
        t = np.array([[1j, 2j], [0.0, 1j]])
        k = [1.0, 1.0]
        sys = LSystem(t, k, 1)
        t[0, 0] = 5.0
        assert sys.T[0, 0] == 1j and t.flags.writeable
        assert not sys.T.flags.writeable and not sys.K.flags.writeable
        assert sys.T.dtype == sys.K.dtype == complex
        assert LSystem(1j, 1.0).T.shape == (1, 1)
        assert LSystem([[1j]], [[1.0]]).K.shape == (1,)

    @pytest.mark.parametrize("j", [True, False, np.True_, np.False_])
    def test_directing_sign_rejects_booleans(self, j):
        message = f"directing sign must be +1 or -1, got {j!r}"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            LSystem([[1j]], [1.0], j)

    @pytest.mark.parametrize("j, stored", [(1, 1), (1.0, 1), (-1, -1), (np.int64(1), 1)])
    def test_directing_sign_accepts_integral_values(self, j, stored):
        sys = LSystem([[1j]], [1.0], j)
        assert sys.J == stored and type(sys.J) is int

    def test_elementary_equals_public_construction(self, rng):
        lams = [draw_upper(rng) for _ in range(50)]
        lams += [complex(0.0, 1.0), complex(-0.0, 1.0), complex(-0.0, 1e-300), 1e300 + 1e300j]
        for lam in lams:
            sys = make_elementary(lam).system
            ref = LSystem([[lam]], [math.sqrt(lam.imag)], 1)
            assert sys.T.tobytes() == ref.T.tobytes() and sys.T.shape == ref.T.shape
            assert sys.K.tobytes() == ref.K.tobytes() and sys.K.shape == ref.K.shape
            assert sys.J == ref.J == 1 and type(sys.J) is int

    def test_spectrum_of_triangular_block(self):
        c = couple(make_elementary(1j).system, make_elementary(2j).system)
        spec = sorted(c.system.spectrum(), key=lambda z: z.imag)
        assert abs(spec[0] - 1j) < 1e-14 and abs(spec[1] - 2j) < 1e-14


class TestValidate:
    def test_elementary_exact(self):
        rep = validate(make_elementary(1j).system)
        assert rep.residual == 0.0 and rep.passed

    def test_broken_colligation(self):
        rep = validate(LSystem([[2j]], [1.0], 1))
        assert abs(rep.residual - 1.0) < 1e-15
        assert not rep.passed

    def test_coupled_block(self):
        c = couple(make_elementary(1j).system, make_elementary(1j).system)
        rep = validate(c.system)
        assert rep.residual <= 1e-14 and rep.passed


class TestTransferEval:
    def test_value_at_minus_i(self):
        sys = make_elementary(1 + 1j).system
        w = transfer_eval(sys, -1j)
        assert rel_err(w, 0.2 - 0.4j) < 1e-14
        assert abs(abs(w) - 1 / math.sqrt(5)) < 1e-14

    def test_spectrum_point_raises(self):
        with pytest.raises(SingularResolventError):
            transfer_eval(make_elementary(1j).system, 1j)

    def test_value_at_2i(self):
        assert rel_err(transfer_eval(make_elementary(1j).system, 2j), 3.0) < 1e-14


class TestImpedanceEval:
    def test_value_at_i(self):
        sys = make_elementary(1 + 1j).system
        assert rel_err(impedance_eval(sys, 1j), 0.5 + 0.5j) < 1e-14

    def test_purely_imaginary_case(self):
        assert rel_err(impedance_eval(make_elementary(1j).system, 1j), 1j) < 1e-14

    def test_real_spectrum_point_raises(self):
        with pytest.raises(SingularResolventError):
            impedance_eval(make_elementary(1j).system, 0.0)


class TestAnalyticIdentities:
    def _random_systems(self, rng, n=20):
        out = []
        for _ in range(n):
            lam, mu = draw_upper(rng), draw_upper(rng)
            out.append((make_elementary(lam).system, (lam,)))
            c = couple(make_elementary(lam).system, make_elementary(mu).system)
            out.append((c.system, (lam, mu)))
        return out

    def test_cayley_link_between_transfer_and_impedance(self, rng):
        for sys, poles in self._random_systems(rng):
            for _ in range(5):
                z = draw_z(rng, avoid=poles)
                w = transfer_eval(sys, z)
                v = impedance_eval(sys, z)
                assert rel_err(1j * (w - 1.0) / (w + 1.0) * sys.J, v) < 1e-10

    def test_impedance_is_herglotz_in_upper_half_plane(self, rng):
        for sys, _ in self._random_systems(rng, n=10):
            for _ in range(50):
                z = draw_z_upper(rng)
                assert impedance_eval(sys, z).imag > 0


def _chain(lams):
    sys = make_elementary(lams[0]).system
    for lam in lams[1:]:
        sys = couple(sys, make_elementary(lam).system).system
    return sys


def _draw_chain(rng, k):
    return _chain([draw_upper(rng) for _ in range(k)])


def _guard_systems(rng):
    """Elementary systems, chains up to n = 64, J = -1 systems and broken ones."""
    out = [make_elementary(draw_upper(rng)).system for _ in range(4)]
    out += [_draw_chain(rng, k) for k in (2, 5, 16, 64)]
    for sys in (make_elementary(0.5 + 1j).system, _draw_chain(rng, 8)):
        # entrywise conjugation turns Im T = K K* into Im T = -conj(K) conj(K)*
        out.append(LSystem(sys.T.conj(), sys.K.conj(), -1))
    out.append(LSystem([[2j]], [1.0], 1))
    out.append(LSystem(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                       rng.normal(size=6) + 1j * rng.normal(size=6), 1))
    return out


def _guard_points(rng, sys):
    """Real axis, spectrum points, near the axis, both half-planes and the strip edges."""
    lo, hi = sys.im_strip
    re_spec = np.linalg.eigvalsh((sys.T + sys.T.conj().T) / 2.0)
    pts = [0.0, 1.0, -2.5]
    pts += list(sys.spectrum()[:4]) + [complex(x) for x in re_spec[:4]]
    pts += [complex(x, y) for x in re_spec[:2] for y in (1e-14, -1e-14, 1e-9, -1e-6)]
    pts += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
    pts += [1j, -1j, 2j, complex(0.3, lo - 1e-3), complex(0.3, hi + 1e-3),
            complex(0.3, lo - 1e-12), complex(0.3, hi + 1e-12)]
    return pts


_SVD = np.linalg.svd


def _plain_guard(a, b):
    """The ungated guard: SVD test on every call, then the same solve."""
    s = _SVD(a, compute_uv=False)
    if s[-1] <= a.shape[0] * np.finfo(float).eps * s[0]:
        return None
    return np.linalg.solve(a, b)


class TestGuard:
    def test_gate_keeps_every_decision_and_value(self, rng, monkeypatch):
        svd_calls = []

        def counting_svd(*args, **kwargs):
            svd_calls.append(1)
            return _SVD(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        evals = raised = 0
        for sys in _guard_systems(rng):
            eye = np.eye(sys.dim)
            re_t = (sys.T + sys.T.conj().T) / 2.0
            for z in _guard_points(rng, sys):
                z = complex(z)
                for ev, a, value in (
                        (transfer_eval, sys.T - z * eye,
                         lambda x: complex(1.0 - 2j * np.vdot(sys.K, x) * sys.J)),
                        (impedance_eval, re_t - z * eye,
                         lambda x: complex(np.vdot(sys.K, x)))):
                    x = _plain_guard(a, sys.K)
                    try:
                        got = ev(sys, z)
                    except SingularResolventError:
                        got = None
                    evals += 1
                    if x is None:
                        raised += 1
                        assert got is None, (ev.__name__, sys.dim, z)
                    else:
                        assert got == value(x), (ev.__name__, sys.dim, z)
        # both branches of the gate and both outcomes of the SVD test are exercised
        assert 0 < len(svd_calls) < evals and raised > 0

    def test_no_svd_where_dissipativity_bounds_sigma_min(self, rng, monkeypatch):
        lams = [draw_upper(rng) for _ in range(32)]
        sys = _chain(lams)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD should be skipped")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        v = impedance_eval(sys, 1j)
        w = transfer_eval(sys, -1j)
        w_ref = math.prod((lam.conjugate() + 1j) / (lam + 1j) for lam in lams)
        assert v.imag > 0
        assert rel_err(w, w_ref) < 1e-10

    def test_numerical_range_inside_strip(self, rng):
        for sys in _guard_systems(rng):
            lo, hi = sys.im_strip
            im_t = (sys.T - sys.T.conj().T) / 2j
            for _ in range(50):
                x = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
                x /= np.linalg.norm(x)
                q = np.vdot(x, im_t @ x).real
                assert lo - 1e-12 <= q <= hi + 1e-12

    def test_residual_shared_with_validate(self):
        sys = LSystem([[2j]], [1.0], 1)
        assert validate(sys).residual == sys.residual == 1.0
        assert sys.im_strip == (-1.0, 2.0)

    def test_singular_message_states_conditioning(self):
        with pytest.raises(SingularResolventError,
                           match=r"z=1j .*singular or ill-conditioned: n=1, sigma_min=0\.000e\+00"):
            transfer_eval(make_elementary(1j).system, 1j)


class TestShift:
    """T - zI and Re T - zI are built by shifting the diagonal of one copy."""

    def test_equal_to_eye_reference(self, rng, monkeypatch):
        guarded = colligation._solve_guarded
        shifted = []

        def capture(a, *args):
            shifted.append(a.copy())
            return guarded(a, *args)

        monkeypatch.setattr(colligation, "_solve_guarded", capture)
        values = 0
        for sys in _guard_systems(rng):
            eye = np.eye(sys.dim)
            re_t = (sys.T + sys.T.conj().T) / 2.0
            zs = [draw_z_upper(rng) for _ in range(3)] + [-draw_z_upper(rng) for _ in range(3)]
            for z in zs + [1j, -1j, complex(-0.5, 2.0), complex(0.5, -2.0)]:
                for ev, ref, value in (
                        (transfer_eval, sys.T - z * eye,
                         lambda x: complex(1.0 - 2j * np.vdot(sys.K, x) * sys.J)),
                        (impedance_eval, re_t - z * eye,
                         lambda x: complex(np.vdot(sys.K, x)))):
                    shifted.clear()
                    try:
                        got = ev(sys, z)
                    except SingularResolventError:
                        got = None
                    # == rather than bytes: a zero may differ in sign from the reference
                    assert len(shifted) == 1 and (shifted[0] == ref).all(), (ev.__name__, z)
                    if got is not None:
                        values += 1
                        assert got == value(np.linalg.solve(ref, sys.K)), (ev.__name__, z)
        assert values > 0

    def test_system_is_not_modified(self, rng):
        sys = _draw_chain(rng, 8)
        t, k = sys.T.copy(), sys.K.copy()
        transfer_eval(sys, -1j)
        impedance_eval(sys, 1j)
        assert sys.T.tobytes() == t.tobytes() and sys.K.tobytes() == k.tobytes()
