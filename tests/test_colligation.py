"""Matrix colligations: validation, the triangular path and resolvent evaluation."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import draw_upper, draw_z, draw_z_upper, entropy_by_where, rel_err

from livsic import (
    DimensionError,
    DomainError,
    LSystem,
    SingularResolventError,
    c_entropy,
    c_entropy_elementary_closed,
    c_entropy_resolvent,
    colligation,
    couple,
    impedance_eval,
    impedance_resolvent,
    make_elementary,
    rat_eval,
    transfer_closed,
    transfer_eval,
    transfer_resolvent,
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

    @pytest.mark.parametrize("j", [1 + 0j, -1 + 0j, np.complex128(1), np.complex64(-1)])
    def test_directing_sign_rejects_complex_values(self, j):
        message = f"directing sign must be +1 or -1, got {j!r}"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            LSystem([[1j]], [1.0], j)

    @pytest.mark.parametrize("j, stored", [
        (1, 1), (1.0, 1), (-1, -1), (np.int64(1), 1), (np.float64(-1), -1)])
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

    @pytest.mark.parametrize("t, k", [([[math.inf]], [1.0]), ([[complex(0.0, math.nan)]], [1.0]),
                                      ([[1j]], [math.inf])])
    def test_non_finite_entries_are_rejected(self, t, k):
        with pytest.raises(ValueError, match="non-finite entries in system matrices"):
            LSystem(t, k, 1)

    def test_spectrum_of_triangular_block(self):
        c = couple(make_elementary(1j).system, make_elementary(2j).system)
        spec = sorted(np.linalg.eigvals(c.system.T), key=lambda z: z.imag)
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

    def test_norms_past_the_float_range_are_rescaled(self):
        # ||T||^2 = 2e600 overflows; the norm itself does not
        good = make_elementary(1e300 + 1e300j).system
        assert good.t_norm == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
        rep = validate(good)
        assert math.isfinite(rep.threshold) and rep.passed
        broken = LSystem([[1e300 + 1e300j]], [1.0], 1)
        rep = validate(broken)
        assert rep.residual == pytest.approx(1e300, rel=1e-15)
        assert math.isfinite(rep.threshold) and not rep.passed
        big = LSystem([[1e300 + 1e300j, 1e300], [0.0, 1e300j]], [1e150, 0.5e150], 1)
        assert big.residual == pytest.approx(np.linalg.norm(
            (big.T - big.T.conj().T) / 2e300j - np.outer(big.K, big.K.conj()) / 1e300) * 1e300,
            rel=1e-14)

    @pytest.mark.parametrize("k", [1e308, 1e308 + 1e308j])
    def test_overflowing_channel_fails_without_a_warning(self, k):
        # K K* overflows (to inf, or to NaN in the imaginary part); pytest
        # turns a numpy warning into an error
        rep = validate(LSystem([[0.5 + 1j, 2j], [0.0, -1.0 + 1j]], [k, 1.0], 1))
        assert not math.isfinite(rep.residual) and not rep.passed

    @pytest.mark.parametrize("lam", [1.0 + 1e308j, 1e308 + 1j, -1.7e308 + 1.7e308j])
    def test_hermitian_parts_do_not_overflow(self, lam):
        # (T - T*)/2j or (T + T*)/2 overflows in the plain sum; pytest turns
        # a numpy warning into an error
        sys = make_elementary(lam).system
        assert validate(sys).passed
        assert sys.residual <= 4.0 * np.spacing(lam.imag)
        v = impedance_resolvent(sys, 1j)
        assert rel_err(v, lam.imag / (lam.real - 1j)) < 1e-15

    def test_hermitian_parts_keep_subnormal_bytes(self):
        # halving a subnormal part rounds, so only overflowing entries are halved
        sys = LSystem([[3e-323 + 1e308j, 1e-310 - 5e-324j], [5e-324, 1e308 + 7e-323j]],
                      [1e154, 1e-310], 1)
        t = sys.T
        im_t = colligation._hermitian_part(t, True)
        re_t = colligation._hermitian_part(t, False)
        with np.errstate(over="ignore", invalid="ignore"):
            plain_im, plain_re = (t - t.conj().T) / 2j, (t + t.conj().T) / 2.0
        for got, plain in ((im_t, plain_im), (re_t, plain_re)):
            finite = np.isfinite(plain)
            assert not finite.all() and np.isfinite(got).all()
            assert got[finite].tobytes() == plain[finite].tobytes()
        assert im_t[0, 0] == 1e308 and re_t[1, 1] == 1e308

    def test_resolvent_reads_one_re_t(self, monkeypatch):
        # the kernel solves V on Re T = _hermitian_part(T, False), shifted on its diagonal
        solve, solved = np.linalg.solve, []

        def spy(a, *args, **kwargs):
            solved.append(a.copy())
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        zs = [1j, 2j, 1j]
        for sys in (make_elementary(0.5 + 2j).system, LSystem([[1 + 1j, 2j], [0.0, 3 + 1j]], [1.0, 1.0])):
            solved.clear()
            v = impedance_resolvent(sys, zs)
            re_t = colligation._hermitian_part(sys.T, False)
            assert re_t.tobytes() == ((sys.T + sys.T.conj().T) / 2.0).tobytes()
            (a,) = solved
            eye = np.eye(sys.dim, dtype=bool)
            for k, z in enumerate(zs):
                assert a[k][~eye].tobytes() == re_t[~eye].tobytes()
                assert a[k][eye].tobytes() == (re_t[eye] - z).tobytes()
            assert v[0] == v[2]

    def test_plain_norm_kept_where_finite(self, rng):
        sys = LSystem(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                      rng.normal(size=6) + 1j * rng.normal(size=6), 1)
        assert sys.t_norm == float(np.linalg.norm(sys.T))
        im_t = (sys.T - sys.T.conj().T) / 2j
        assert sys.residual == float(np.linalg.norm(im_t - np.outer(sys.K, sys.K.conj())))


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

    def test_overflowing_product_is_refused_without_a_warning(self):
        # W is about 1 where t - z, or the complex division, overflows inside: the
        # quartered factor gives it within one ulp of 1 of the exact value, quietly
        for lam, z in [(1e308 + 1j, -1e308 + 0.5j), (1 + 1j, 1.5e308 * (1 + 1j)),
                       (1 + 1j, complex(1e308, -1e308))]:
            w = transfer_eval(make_elementary(lam).system, z)
            a, b = Fraction(lam.real) - Fraction(z.real), Fraction(lam.imag)
            c = Fraction(z.imag)
            # (conj(lam) - z)/(lam - z) = (a - (b + c)i)/(a + (b - c)i)
            den = a * a + (b - c) ** 2
            want = ((a * a - (b + c) * (b - c)) / den, -a * 2 * b / den)
            ulp = Fraction(math.ulp(1.0))
            assert abs(Fraction(w.real) - want[0]) <= ulp, (lam, z, w)
            assert abs(Fraction(w.imag) - want[1]) <= ulp, (lam, z, w)
        # a product that overflows for true keeps its refusal, with the distance
        # formed under the product's errstate
        message = ("W(z) at z=(-0-1j) overflows: |W(z)| exceeds the largest float, with z at "
                   "distance 1.000e-310 from an eigenvalue of T (n=1)")
        with pytest.raises(SingularResolventError, match=f"^{re.escape(message)}$"):
            transfer_eval(LSystem([[1e-310 - 1j]], [1.0], -1), -1j)


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
    """Elementary systems, chains up to n = 64, plain 1x1 systems with
    J = +1 and -1, J = -1 systems and broken ones."""
    out = [make_elementary(lam).system for lam in [draw_upper(rng) for _ in range(4)]
           + [complex(-0.0, 1e-300), complex(1e300, 0.5)]]
    out += [LSystem([[lam]], [math.sqrt(lam.imag)], 1) for lam in (0.5 + 1j, -2.0 + 1e-300j)]
    out += [_draw_chain(rng, k) for k in (2, 5, 16, 64)]
    for sys in (make_elementary(0.5 + 1j).system, make_elementary(3.0 + 1e-3j).system,
                _draw_chain(rng, 8)):
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
    pts += list(np.linalg.eigvals(sys.T)[:4]) + [complex(x) for x in re_spec[:4]]
    pts += [complex(x, y) for x in re_spec[:2] for y in (1e-14, -1e-14, 1e-9, -1e-6)]
    pts += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
    pts += [1j, -1j, 2j, complex(0.3, lo - 1e-3), complex(0.3, hi + 1e-3),
            complex(0.3, lo - 1e-12), complex(0.3, hi + 1e-12)]
    if sys.dim == 1:
        # z = t exactly, one ulp off in each part, inside the strip, and |z| near 1e308
        t = complex(sys.T[0, 0])
        pts += [t] + [complex(math.nextafter(t.real, to), t.imag) for to in (-math.inf, math.inf)]
        pts += [complex(t.real, math.nextafter(t.imag, to)) for to in (-math.inf, math.inf)]
        pts += [complex(x, lo + (hi - lo) * f) for x in (t.real, 0.0) for f in (0.25, 0.5, 0.75)]
        pts += [complex(1e308, 0.5), complex(-1.7e308, t.imag), complex(t.real, 1e308),
                complex(-1e308, -0.25)]
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
                        (transfer_resolvent, sys.T - z * eye,
                         lambda x: complex(1.0 - 2j * np.vdot(sys.K, x) * sys.J)),
                        (impedance_resolvent, re_t - z * eye,
                         lambda x: complex(np.vdot(sys.K, x)))):
                    x = _plain_guard(a, sys.K)
                    try:
                        got = ev(sys, z)
                    except SingularResolventError as exc:
                        got, message = None, str(exc)
                    evals += 1
                    if x is None:
                        raised += 1
                        assert got is None, (ev.__name__, sys.dim, z)
                        s = _SVD(a, compute_uv=False)
                        assert message.endswith(f"n={sys.dim}, sigma_min={s[-1]:.3e}, "
                                                f"sigma_max={s[0]:.3e}"), message
                    elif np.isfinite(value(x)):
                        assert got == value(x), (ev.__name__, sys.dim, z)
                    else:
                        # a solve that overflows, next to the spectrum of a tiny Im t
                        assert got is None and "overflows the float range" in message
        # both branches of the gate and both outcomes of the SVD test are exercised
        assert 0 < len(svd_calls) < evals and raised > 0

    def test_no_svd_where_dissipativity_bounds_sigma_min(self, rng, monkeypatch):
        lams = [draw_upper(rng) for _ in range(32)]
        sys = _chain(lams)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD should be skipped")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        v = impedance_resolvent(sys, 1j)
        w = transfer_resolvent(sys, -1j)
        w_ref = math.prod((lam.conjugate() + 1j) / (lam + 1j) for lam in lams)
        assert v.imag > 0
        assert rel_err(w, w_ref) < 1e-10
        # nor on a fresh one-factor system at points inside its strip [0, Im lam]
        lam = draw_upper(rng)
        one = make_elementary(lam).system
        for y in np.linspace(0.0, lam.imag, 5):
            transfer_resolvent(one, complex(lam.real + 0.5, y))
            impedance_resolvent(one, complex(lam.real - 0.5, y))

    @pytest.mark.parametrize("lams, z", [
        ([1e300 + 1e300j], 1j), ([1e300 + 1e300j, 1 + 1j], 1j), ([1 + 1j], 2e154j),
        ([1 + 1e300j], 2e154j)])
    def test_norm_past_the_float_range_keeps_decision_and_value(self, lams, z):
        # the plain sum of squares of ||T - zI||_F and ||Re T - zI||_F overflows;
        # the guard's norm is rescaled instead, without numpy's overflow warning
        # (an error in this suite).  For V at 2e154i the floor clears the guard,
        # by the bound ||T||_F + |z| for 1 + i and by the rescaled norm of
        # Re T - zI = 1 - zI for 1 + 1e300i, so its SVD is skipped.
        sys = _chain(lams)
        eye = np.eye(sys.dim)
        re_t = (sys.T + sys.T.conj().T) / 2.0
        for ev, a, value in (
                (transfer_resolvent, sys.T - z * eye,
                 lambda x: complex(1.0 - 2j * np.vdot(sys.K, x) * sys.J)),
                (impedance_resolvent, re_t - z * eye, lambda x: complex(np.vdot(sys.K, x)))):
            with np.errstate(over="ignore"):
                assert np.linalg.norm(a) == math.inf
            x = _plain_guard(a, sys.K)
            if x is None:
                with pytest.raises(SingularResolventError, match="singular or ill-conditioned"):
                    ev(sys, z)
            else:
                assert ev(sys, z) == value(x)

    @pytest.mark.parametrize("z", [1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, 1.7e308 - 1.7e308j])
    def test_modulus_past_the_float_range_runs_the_svd(self, rng, z):
        # z is finite but |z| is not: the gate takes its bound as inf and runs the
        # SVD, which passes, so W and V give their limits 1 and 0 at n = 1 and 2,
        # chained or dense
        two = _chain([1 + 1j, -0.5 + 2j])
        assert colligation._needs_svd(two, z, False) and colligation._needs_svd(two, z, True)
        for sys in (make_elementary(1 + 1j).system, two, _similar(two, rng)):
            assert validate(sys).passed
            assert impedance_eval(sys, z) == 0j, sys.dim
            assert transfer_resolvent(sys, z) == 1.0 and impedance_resolvent(sys, z) == 0j

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
            transfer_resolvent(make_elementary(1j).system, 1j)


class TestRefusal:
    """The resolvent returns a finite value or raises a typed error."""

    def test_overflowing_solve_raises(self):
        mirror = LSystem([[1e-310 - 1j]], [1.0], -1)
        with pytest.raises(SingularResolventError, match=r"W\(z\) at z=\(-0-1j\) overflows"):
            transfer_resolvent(mirror, -1j)
        with pytest.raises(SingularResolventError, match="overflows the float range"):
            c_entropy_resolvent(mirror)
        # a valid elementary system whose V = -1e310 at z = 2e-310 exceeds the float range
        with pytest.raises(SingularResolventError, match=r"V\(z\) at z=\(2e-310\+0j\) overflows"):
            impedance_eval(make_elementary(1e-310 + 1j).system, 2e-310)

    @pytest.mark.parametrize("ev", [transfer_eval, transfer_resolvent, impedance_eval,
                                    impedance_resolvent])
    def test_infinite_z_raises(self, ev):
        with pytest.raises(SingularResolventError, match="overflows the float range"):
            ev(make_elementary(1 + 1j).system, complex(math.inf, math.inf))

    @pytest.mark.parametrize("ev, limit", [(transfer_eval, 1 + 0j), (transfer_resolvent, 1 + 0j),
                                           (impedance_eval, 0j), (impedance_resolvent, 0j)])
    def test_infinite_z_gives_the_limit_and_no_lapack_output(self, rng, capfd, ev, limit):
        # LAPACK's SVD of a shifted matrix with infinite entries writes an
        # illegal-value message to stdout (fd 1), so the guard skips it there
        for k in (2, 3, 16):
            sys = _draw_chain(rng, k)
            for z in (complex(math.inf, 0.0), complex(0.0, math.inf), complex(-math.inf, 0.0),
                      complex(math.inf, 1.0), complex(1.0, -math.inf)):
                assert ev(sys, z) == limit, (k, z)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.nan, math.nan), complex(math.inf, math.nan)])
    @pytest.mark.parametrize("ev", [transfer_eval, transfer_resolvent, impedance_eval,
                                    impedance_resolvent])
    def test_nan_z_is_a_domain_error_before_lapack(self, rng, monkeypatch, ev, z):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK should not be called")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        for sys in (make_elementary(1 + 1j).system, _draw_chain(rng, 4)):
            with pytest.raises(DomainError, match="z has a NaN part"):
                ev(sys, z)

    # the sigma digits of an n > 1 SVD are LAPACK's, so only their format is pinned
    SIGMAS = r"sigma_min=\d\.\d{3}e[+-]\d{2}, sigma_max=\d\.\d{3}e[+-]\d{2}"
    # T = diag(1 + i, 2), K = (1, 0): a valid 2x2 system with Re T = diag(1, 2) exactly
    DIAGONAL = LSystem(np.diag([1 + 1j, 2 + 0j]), [1.0, 0.0])

    @pytest.mark.parametrize("ev, sys, zs, error, message", [
        (transfer_resolvent, make_elementary(0.5 + 1j).system, [3j, complex(math.nan, 1.0), 0.5 + 1j],
         DomainError, re.escape("T - zI at z=(nan+1j): z has a NaN part")),
        (transfer_resolvent, make_elementary(2j).system, [3j, 2j, complex(math.nan, 0.0)],
         SingularResolventError,
         re.escape("T - zI at z=2j is numerically singular or ill-conditioned: n=1, "
                   "sigma_min=0.000e+00, sigma_max=0.000e+00")),
        (transfer_resolvent, DIAGONAL, [3j, 1 + 1j, 2 + 0j],
         SingularResolventError,
         re.escape("T - zI at z=(1+1j) is numerically singular or ill-conditioned: n=2, ") + SIGMAS),
        (transfer_resolvent, LSystem([[1e-310 - 1j]], [1.0], -1), [1j, -1j, 1e-310 - 1j],
         SingularResolventError,
         re.escape("W(z) at z=(-0-1j) overflows the float range: the resolvent gives (nan+nanj) (n=1)")),
        (impedance_resolvent, make_elementary(0.5 + 1j).system, [1j, complex(0.0, math.nan), 0.5],
         DomainError, re.escape("Re T - zI at z=nanj: z has a NaN part")),
        (impedance_resolvent, make_elementary(0.5 + 1j).system, [1j, 0.5, complex(math.nan, 0.0)],
         SingularResolventError,
         re.escape("Re T - zI at z=(0.5+0j) is numerically singular or ill-conditioned: n=1, "
                   "sigma_min=0.000e+00, sigma_max=0.000e+00")),
        (impedance_resolvent, DIAGONAL, [3j, 2 + 0j, 1 + 0j],
         SingularResolventError,
         re.escape("Re T - zI at z=(2+0j) is numerically singular or ill-conditioned: n=2, ") + SIGMAS),
        (impedance_resolvent, make_elementary(1e-310 + 1j).system, [1j, 2e-310, 1e-310],
         SingularResolventError,
         re.escape("V(z) at z=(2e-310+0j) overflows the float range: the resolvent gives (nan+nanj) (n=1)")),
    ])
    def test_refusal_text_is_exact(self, ev, sys, zs, error, message):
        # zs[1] fails alone; in the sequence it is the first failing point, and
        # zs[2], which fails in another way, does not change the error
        assert validate(sys).passed
        for z in (zs[1], zs):
            with pytest.raises(error) as info:
                ev(sys, z)
            assert type(info.value) is error and re.fullmatch(message, str(info.value)), str(info.value)
        with pytest.raises((DomainError, SingularResolventError)) as info:
            ev(sys, zs[2])
        assert not re.fullmatch(message, str(info.value))

    def test_cayley_gate_is_the_guards_rule(self, monkeypatch):
        # |Im z| = 3 n eps (||T||_F + sqrt(n)|z|) lies between the old gate's
        # factor 2 and the rule's 4: the resolvent answers, after its SVD
        sys = make_elementary(1 + 1j).system
        y = 3.0 * np.finfo(float).eps * (sys.t_norm + 2.0)
        z, clear = complex(-2.0, y), complex(-2.0, 2.0 * y)
        assert colligation._needs_svd(sys, z, True) and not colligation._needs_svd(sys, clear, True)
        resolvent, calls = colligation.impedance_resolvent, []

        def recording(sys, z):
            calls.append(z)
            return resolvent(sys, z)

        monkeypatch.setattr(colligation, "impedance_resolvent", recording)
        assert repr(impedance_eval(sys, z)) == repr(resolvent(sys, z)) and calls == [z]
        calls.clear()
        impedance_eval(sys, clear)
        assert calls == []


class TestShift:
    """T - zI and Re T - zI are built by shifting the diagonal of one copy."""

    def test_equal_to_eye_reference(self, rng, monkeypatch):
        # the shifted matrix as LAPACK receives it, in the SVD guard and in the solve
        svd, solve = np.linalg.svd, np.linalg.solve
        shifted = []

        def spy(lapack):
            def capture(a, *args, **kwargs):
                shifted.append(a.copy())
                return lapack(a, *args, **kwargs)
            return capture

        monkeypatch.setattr(np.linalg, "svd", spy(svd))
        monkeypatch.setattr(np.linalg, "solve", spy(solve))
        values = 0
        for sys in _guard_systems(rng):
            eye = np.eye(sys.dim)
            re_t = (sys.T + sys.T.conj().T) / 2.0
            zs = [draw_z_upper(rng) for _ in range(3)] + [-draw_z_upper(rng) for _ in range(3)]
            for z in zs + [1j, -1j, complex(-0.5, 2.0), complex(0.5, -2.0)]:
                for ev, ref, value in (
                        (transfer_resolvent, sys.T - z * eye,
                         lambda x: complex(1.0 - 2j * np.vdot(sys.K, x) * sys.J)),
                        (impedance_resolvent, re_t - z * eye,
                         lambda x: complex(np.vdot(sys.K, x)))):
                    shifted.clear()
                    try:
                        got = ev(sys, z)
                    except SingularResolventError:
                        got = None
                    # == rather than bytes: a zero may differ in sign from the reference
                    assert all((a == ref).all() for a in shifted), (ev.__name__, z)
                    if got is not None:
                        values += 1
                        assert shifted, (ev.__name__, z)
                        assert got == value(solve(ref, sys.K)), (ev.__name__, z)
        assert values > 0

    def test_system_is_not_modified(self, rng):
        sys = _draw_chain(rng, 8)
        t, k = sys.T.copy(), sys.K.copy()
        transfer_resolvent(sys, -1j)
        impedance_resolvent(sys, 1j)
        assert sys.T.tobytes() == t.tobytes() and sys.K.tobytes() == k.tobytes()


def _similar(sys, rng):
    """Q T Q*, Q K for a random unitary Q: a valid colligation with a dense T."""
    q, _ = np.linalg.qr(rng.normal(size=(sys.dim, sys.dim))
                        + 1j * rng.normal(size=(sys.dim, sys.dim)))
    return LSystem(q @ sys.T @ q.conj().T, q @ sys.K, sys.J)


def _bits(values):
    """Every value's bytes, signed zeros included."""
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _sequence_systems(rng):
    """Chains of 1, 2 and 3 factors, and dense plain systems with J = +1 and -1."""
    out = [_draw_chain(rng, k) for k in (1, 2, 3)]
    for k in (1, 3):
        dense = _similar(_draw_chain(rng, k), rng)
        out += [dense, LSystem(dense.T.conj(), dense.K.conj(), -1)]
    return out


def _sequence_points(sys):
    """Inside the strip of T and beside the real axis (where the SVD runs),
    outside both, in the lower half-plane, and at infinity."""
    lo, hi = sys.im_strip
    pts = [complex(x, lo + (hi - lo) * f) for x in (-0.7, 0.4) for f in (0.25, 0.5, 0.75)]
    pts += [complex(0.3, 1e-14), complex(-1.2, -1e-13), complex(-0.0, 0.0), 0.5]
    pts += [complex(1.5, hi + 2.0), complex(-2.0, lo - 2.0), -1j, complex(0.8, -2.5)]
    pts += [complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(0.0, math.inf),
            complex(-0.0, -math.inf), complex(math.inf, 1.0)]
    return pts


class TestSequence:
    """A 1-D sequence of points is one stacked solve, with the bytes of one call per point."""

    @pytest.mark.parametrize("ev", [transfer_resolvent, impedance_resolvent])
    def test_each_value_is_the_single_calls(self, rng, monkeypatch, ev):
        svd, stacked = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            stacked.append(a.ndim == 3)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for sys in _sequence_systems(rng):
            single = []
            for z in _sequence_points(sys):
                try:
                    single.append((z, ev(sys, z)))
                except SingularResolventError:
                    pass
            zs = [z for z, _ in single]
            assert len(zs) > 15, sys.dim
            stacked.clear()
            for seq in (zs, tuple(zs), np.array(zs)):
                got = ev(sys, seq)
                assert type(got) is list and all(type(v) is complex for v in got)
                assert _bits(got) == _bits(v for _, v in single), (ev.__name__, sys.dim)
            # the SVD runs on a stack, once per sequence, where any point needs it
            assert stacked in ([], [True] * 3) and (sys.dim == 1 or stacked), sys.dim

    def test_one_solve_and_one_svd_per_sequence(self, rng, monkeypatch):
        sys = _draw_chain(rng, 3)
        eye = np.eye(sys.dim)
        lo, hi = sys.im_strip
        zs = [complex(0.2, (lo + hi) / 2), 1j, complex(-1.0, -2.0), complex(0.5, 1e-14)]
        calls = []

        def spy(name, lapack):
            def capture(a, *args, **kwargs):
                calls.append((name, a.copy()))
                return lapack(a, *args, **kwargs)
            return capture

        monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
        for ev, base in ((transfer_resolvent, sys.T),
                         (impedance_resolvent, colligation._hermitian_part(sys.T, False))):
            calls.clear()
            ev(sys, zs)
            assert [name for name, _ in calls] == ["svd", "solve"], ev.__name__
            a = calls[1][1]
            # one slice per point, shifted on its diagonal alone
            assert a.shape == (len(zs), sys.dim, sys.dim)
            assert all((a[k] == base - z * eye).all() for k, z in enumerate(zs))
            assert len(calls[0][1]) < len(zs)

    def test_first_failing_point_raises_the_single_calls_error(self, rng):
        one = make_elementary(0.5 + 1j).system
        chain = _draw_chain(rng, 3)
        t = complex(chain.T[1, 1])
        # W of this valid 1x1 system overflows at -i, and T - zI is singular at t
        mirror = LSystem([[1e-310 - 1j]], [1.0], -1)
        nan = complex(math.nan, 0.0)
        cases = [
            (transfer_resolvent, one, [2j, 0.5 + 1j, 3j]),
            (transfer_resolvent, one, [2j, nan, 0.5 + 1j]),
            (transfer_resolvent, one, [0.5 + 1j, nan]),
            (impedance_resolvent, one, [1j, 0.5, -1j]),
            (transfer_resolvent, chain, [1j, t, nan]),
            (transfer_resolvent, chain, [1j, complex(0.0, nan), t]),
            (impedance_resolvent, chain, [1j, -1j, nan]),
            (transfer_resolvent, mirror, [1j, -1j, 1e-310 - 1j]),
            (transfer_resolvent, mirror, [1j, 1e-310 - 1j, -1j]),
        ]
        for ev, sys, zs in cases:
            first = None
            for z in zs:
                try:
                    ev(sys, z)
                except (DomainError, SingularResolventError) as exc:
                    first = exc
                    break
            assert first is not None, (ev.__name__, zs)
            with pytest.raises(type(first)) as info:
                ev(sys, zs)
            assert str(info.value) == str(first), (ev.__name__, zs)

    @pytest.mark.parametrize("ev", [transfer_resolvent, impedance_resolvent])
    def test_a_stack_of_systems_keeps_each_calls_bytes(self, rng, monkeypatch, ev):
        re_t = ev is impedance_resolvent
        by_order = {0: [LSystem(np.zeros((0, 0)), []), LSystem(np.zeros((0, 0)), [], -1)]}
        extra = [_draw_chain(rng, 2), _similar(_draw_chain(rng, 2), rng)]
        for sys in _sequence_systems(rng) + extra:
            by_order.setdefault(sys.dim, []).append(sys)
        solve, solves = np.linalg.solve, []

        def spy(a, *args, **kwargs):
            solves.append(a.shape)
            return solve(a, *args, **kwargs)

        for n in range(4):
            items, expected = [], []
            for k, sys in enumerate(by_order[n]):
                zs, values = [], []
                for z in _sequence_points(sys):
                    try:
                        values.append(ev(sys, z))
                    except SingularResolventError:
                        continue
                    zs.append(z)
                # each item takes its points as a list, a tuple or an array
                items.append((sys, (list, tuple, np.array)[k % 3](zs)))
                expected.append(_bits(values))
            assert len(items) > 1, n
            solves.clear()
            monkeypatch.setattr(np.linalg, "solve", spy)
            got = colligation._solve_guarded(items, re_t)
            monkeypatch.setattr(np.linalg, "solve", solve)
            assert [_bits(v) for v in got] == expected, (ev.__name__, n)
            # one solve of every slice, in item order
            assert solves == [(sum(map(len, expected)), n, n)], (ev.__name__, n)

    def test_first_failing_slice_in_stack_order_raises_its_calls_error(self, rng):
        one = make_elementary(0.5 + 1j).system
        # W of this valid 1x1 system overflows at -i, and T - zI is singular at t
        mirror = LSystem([[1e-310 - 1j]], [1.0], -1)
        chain, other = _draw_chain(rng, 3), _draw_chain(rng, 3)
        t, u = complex(chain.T[1, 1]), complex(other.T[2, 2])
        nan = complex(math.nan, 0.0)
        cases = [
            (transfer_resolvent, [(one, [2j]), (mirror, [1j, -1j]), (one, [0.5 + 1j])]),
            (transfer_resolvent, [(mirror, [1j]), (one, [2j, 0.5 + 1j]), (mirror, [-1j])]),
            (transfer_resolvent, [(one, [2j]), (mirror, [nan]), (mirror, [-1j]), (one, [0.5 + 1j])]),
            (impedance_resolvent, [(mirror, [1j]), (one, [2j, 0.5]), (mirror, [1e-310])]),
            (transfer_resolvent, [(chain, [1j]), (other, [2j, u]), (chain, [t])]),
            (transfer_resolvent, [(other, [1j]), (chain, [complex(0.0, nan), t]), (other, [u])]),
            (impedance_resolvent, [(chain, [1j]), (other, [-1j, nan])]),
        ]
        for ev, items in cases:
            first = None
            for sys, zs in items:
                for z in zs:
                    try:
                        ev(sys, z)
                    except (DomainError, SingularResolventError) as exc:
                        first = first or exc
            assert first is not None, items
            with pytest.raises(type(first)) as info:
                colligation._solve_guarded(items, ev is impedance_resolvent)
            assert str(info.value) == str(first), items

    @pytest.mark.parametrize("re_t", [False, True])
    def test_values_are_the_per_slice_vdot(self, rng, monkeypatch, re_t):
        # q = K*x of every slice is one stacked (1, n) @ (n, 1) product and W = 1 - 2iqJ
        # one array expression: each value keeps the bytes of np.vdot(K, x_k) and of the
        # scalar expression on the same solve, for one item and for several
        solve, xs = np.linalg.solve, []

        def spy(*args, **kwargs):
            xs.append(solve(*args, **kwargs))
            return xs[-1]

        monkeypatch.setattr(np.linalg, "solve", spy)
        for n in (*range(9), 64, 256):
            if n:
                dense = _similar(_draw_chain(rng, n), rng)
                systems = [dense, LSystem(dense.T.conj(), dense.K.conj(), -1),
                           _similar(_draw_chain(rng, n), rng)]
            else:
                systems = [LSystem(np.zeros((0, 0)), [], j) for j in (1, -1, 1)]
            # the half-plane off T's numerical range, which the strip of a long chain is not
            items = [(sys, [complex(z.real, -sys.J * abs(z.imag))
                            for z in (draw_z(rng) for _ in range(3 if n < 64 else 2))])
                     for sys in systems]
            for stack in [items, *([item] for item in items)]:
                xs.clear()
                got = colligation._solve_guarded(stack, re_t)
                (x,) = xs
                slices, want = iter(x), []
                for sys, zs in stack:
                    q = [np.vdot(sys.K, next(slices)) for _ in zs]
                    want.append([complex(qk if re_t else 1.0 - 2j * qk * sys.J) for qk in q])
                assert next(slices, None) is None
                assert [_bits(v) for v in got] == [_bits(v) for v in want], (n, len(stack))

    def test_the_overflow_refusal_keeps_its_text_and_order(self):
        # W of this valid 1x1 system overflows at -i, and T - zI is singular at 1e-310 - i:
        # the first of the two in stack order raises
        one, mirror = make_elementary(0.5 + 1j).system, LSystem([[1e-310 - 1j]], [1.0], -1)
        overflow = ("W(z) at z=(-0-1j) overflows the float range: the resolvent gives "
                    "(nan+nanj) (n=1)")
        singular = ("T - zI at z=(1e-310-1j) is numerically singular or ill-conditioned: n=1, "
                    "sigma_min=0.000e+00, sigma_max=0.000e+00")
        for items, text in [([(one, [2j]), (mirror, [1j, -1j])], overflow),
                            ([(mirror, [1e-310 - 1j, -1j])], singular),
                            ([(mirror, [-1j]), (one, [1j]), (mirror, [1e-310 - 1j])], overflow)]:
            with pytest.raises(SingularResolventError) as info:
                colligation._solve_guarded(items, False)
            assert str(info.value) == text

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_plain_impedance_solves_on_the_hermitian_part(self, rng, n):
        # V of a plain system, alone or stacked with chains, is K*x for x solved on
        # _hermitian_part(T, False) - zI; the last system's Re T takes the halved path
        dense = _similar(_draw_chain(rng, n), rng)
        # entries near 2^1023, finite, and 2 Re t_11 past the float range; a dominant
        # diagonal keeps Re T - zI well conditioned and its elimination finite
        t = 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) + np.eye(n)
        t[0, 0] = 1.5 + 0.5j
        big = LSystem(t * 2.0**1023, dense.K * 2.0**511, -1)
        assert math.isinf(2.0 * float(big.T[0, 0].real))
        plain = [dense, LSystem(dense.T.conj(), dense.K.conj(), -1), big]
        chains = [_draw_chain(rng, n) for _ in range(2)]
        zs = [1j, -2j, 0.3 + 1.5j]

        def want(sys):
            out = []
            for z in zs:
                a = colligation._hermitian_part(sys.T, False)
                a[np.diag_indices(n)] -= z
                x = np.linalg.solve(a[np.newaxis], sys.K[np.newaxis, :, np.newaxis])
                out.append(complex((sys.K.conj()[np.newaxis, np.newaxis] @ x).item()))
            return _bits(out)

        for stack in ([[sys] for sys in plain] + [chains[:1] + plain + chains[1:]]
                      + [plain[:2] + chains + plain[2:]]):
            got = colligation._solve_guarded([(sys, zs) for sys in stack], True)
            assert [_bits(v) for v in got] == [want(sys) for sys in stack], n

    def test_an_empty_stack_solves_nothing(self):
        assert colligation._solve_guarded([], False) == []
        assert colligation._solve_guarded([], True) == []

    def test_a_stack_of_mixed_orders_is_refused(self, rng):
        one, chain = make_elementary(0.5 + 1j).system, _draw_chain(rng, 2)
        for re_t in (False, True):
            with pytest.raises(DimensionError, match="one state dimension, got n=1 and n=2"):
                colligation._solve_guarded([(one, [1j]), (chain, [1j])], re_t)

    @pytest.mark.parametrize("ev", [transfer_resolvent, impedance_resolvent])
    def test_nan_and_empty_sequences_reach_no_lapack(self, rng, monkeypatch, ev):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK should not be called")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        for sys in (make_elementary(1 + 1j).system, _draw_chain(rng, 4)):
            with pytest.raises(DomainError, match="z has a NaN part"):
                ev(sys, [complex(math.nan, 1.0), 1j])
            assert ev(sys, []) == []

    def test_shapes(self):
        sys = make_elementary(1 + 1j).system
        # a 0-d array is one point; a 2-D one is neither
        assert transfer_resolvent(sys, np.array(2j)) == transfer_resolvent(sys, 2j)
        assert impedance_resolvent(sys, np.array([2j])) == [impedance_resolvent(sys, 2j)]
        with pytest.raises(DimensionError, match=r"1-D sequence, got shape \(1, 2\)"):
            transfer_resolvent(sys, [[1j, 2j]])


class TestZeroState:
    """The zero-state system has W = 1 and V = 0, the empty sums, on every path."""

    SYS = LSystem(np.zeros((0, 0)), [])

    @pytest.mark.parametrize("ev, value", [
        (transfer_eval, 1 + 0j), (transfer_resolvent, 1 + 0j),
        (impedance_eval, 0j), (impedance_resolvent, 0j),
    ])
    def test_empty_sums(self, ev, value):
        for z in (1j, 0.5, 0.3 - 2j):
            assert ev(self.SYS, z) == value
        if ev in (transfer_resolvent, impedance_resolvent):
            assert ev(self.SYS, [1j, 0.5]) == [value, value]
        with pytest.raises(DomainError, match="z has a NaN part"):
            ev(self.SYS, complex(math.nan, 1.0))

    def test_entropy(self):
        assert c_entropy(self.SYS) == 0.0

    @pytest.mark.parametrize("t", [[], (), np.empty(0)])
    def test_a_main_operator_with_no_rows_is_0x0(self, t):
        sys = LSystem(t, [])
        assert sys == self.SYS and sys.T.shape == (0, 0) and sys.dim == 0
        assert not sys.T.flags.writeable

    @pytest.mark.parametrize("t", [[[]], np.empty((1, 0))])
    def test_one_empty_row_is_still_refused(self, t):
        with pytest.raises(DimensionError, match=re.escape("must be square, got (1, 0)")):
            LSystem(t, [])


class TestTriangular:
    """W and S read off the diagonal of an upper-triangular T (the triangular model)."""

    def test_matches_resolvent_on_short_chains(self, rng):
        cases = []
        for k in (1, 2, 5, 16):
            lams = [draw_upper(rng) for _ in range(k)]
            cases.append((_chain(lams), lams))
        flipped = _draw_chain(rng, 8)
        # entrywise conjugation gives an upper-triangular J = -1 system
        j_minus = LSystem(flipped.T.conj(), flipped.K.conj(), -1)
        cases.append((j_minus, list(j_minus.T.diagonal())))
        for sys, poles in cases:
            assert sys.triangular_diagonal is not None
            for _ in range(10):
                z = draw_z(rng, avoid=poles)
                assert rel_err(transfer_eval(sys, z), transfer_resolvent(sys, z)) < 1e-10
            assert rel_err(c_entropy(sys), c_entropy_resolvent(sys)) < 1e-10
        assert c_entropy(j_minus) < 0.0

    @pytest.mark.parametrize("k", [64, 256])
    def test_long_chains_match_factor_closed_forms(self, rng, k):
        lams = [draw_upper(rng) for _ in range(k)]
        sys = _chain(lams)
        s_ref = sum(c_entropy_elementary_closed(lam) for lam in lams)
        assert rel_err(c_entropy(sys), s_ref) < 1e-10
        w_ref = math.prod(rat_eval(transfer_closed(lam), 1j) for lam in lams)
        assert rel_err(transfer_eval(sys, 1j), w_ref) < 1e-10

    def test_exact_pole_raises(self, rng):
        lams = [draw_upper(rng) for _ in range(12)]
        sys = _chain(lams)
        with pytest.raises(SingularResolventError, match=r"z is an eigenvalue of T \(diagonal entry 7"):
            transfer_eval(sys, lams[7])
        # W has its pole at -i, so S = -ln|W(-i)| is refused, not -inf
        with pytest.raises(SingularResolventError, match=r"z is an eigenvalue of T \(diagonal entry 0"):
            c_entropy(LSystem([[-1j]], [1.0], -1))

    def test_unit_parameter_gives_infinite_entropy(self, rng):
        sys = _chain([draw_upper(rng), 1j, draw_upper(rng)])
        assert c_entropy(sys) == math.inf
        assert transfer_eval(sys, -1j) == 0.0

    def test_overflow_raises_instead_of_inf(self):
        sys = _chain([1j] * 128)
        # each factor has modulus about 2000 at z, and 2000**128 exceeds the float range
        with pytest.raises(SingularResolventError, match=r"\|W\(z\)\| exceeds the largest float"):
            transfer_eval(sys, 1.001j)
        assert abs(transfer_eval(sys, 3j)) == pytest.approx(2.0 ** 128, rel=1e-12)

    def test_long_lower_half_plane_product_does_not_underflow_entropy(self):
        sys = _chain([0.99j] * 256)
        # |W(-i)| = (1/199)**256 underflows to 0, but S is a sum, never -ln|W(-i)|
        assert transfer_eval(sys, -1j) == 0.0
        assert c_entropy(sys) == pytest.approx(256 * math.log(199.0), rel=1e-13)

    @pytest.mark.parametrize("lam", [1e151 + 1j, 1e152 + 1j, -3e200 + 0.5j, 1e200j,
                                     1e300 + 1e300j, 1e300j])
    def test_huge_parameters_take_the_triangular_path(self, rng, lam):
        others = [draw_upper(rng) for _ in range(3)]
        for lams in ([lam], [others[0], lam, others[1]], [lam, 1e151 + 1j, others[2], 1e300j]):
            sys = _chain(lams)
            d = sys.triangular_diagonal
            assert d is not None and np.abs(d).max() > 1e150
            s_ref = sum(c_entropy_elementary_closed(x) for x in lams)
            assert rel_err(c_entropy(sys), s_ref) < 1e-14 * max(1.0, s_ref)
            for z in (1j, -1j, draw_z(rng, avoid=lams)):
                w_ref = math.prod(rat_eval(transfer_closed(x), z) for x in lams)
                assert rel_err(transfer_eval(sys, z), w_ref) < 1e-12, (lams, z)
        assert c_entropy(make_elementary(lam).system) == c_entropy_elementary_closed(lam)

    def test_fallback_is_bit_identical(self, rng):
        systems = [_similar(_draw_chain(rng, k), rng) for k in (3, 8)]
        systems += [LSystem([[2j]], [1.0], 1),  # triangular but not a colligation
                    LSystem(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                            rng.normal(size=6) + 1j * rng.normal(size=6), 1)]
        for sys in systems:
            assert sys.triangular_diagonal is None
            pts = [draw_z(rng) for _ in range(6)] + [1j, -1j] + list(np.linalg.eigvals(sys.T)[:2])
            for z in pts:
                outcomes = []
                for ev in (transfer_eval, transfer_resolvent):
                    try:
                        outcomes.append(ev(sys, z))
                    except SingularResolventError as exc:
                        outcomes.append(str(exc))
                assert repr(outcomes[0]) == repr(outcomes[1]), (sys.dim, z)
            assert repr(c_entropy(sys)) == repr(c_entropy_resolvent(sys))

    def test_non_finite_z_goes_to_resolvent(self):
        sys = make_elementary(1 + 1j).system
        for z in (complex(math.inf, 0.0), complex(0.0, math.inf)):
            assert transfer_eval(sys, z) == transfer_resolvent(sys, z) == 1.0

    def test_eligibility_checked_once_per_system(self, rng, monkeypatch):
        # a chain qualifies by construction: no validate call, and W and S leave
        # its norms, K and T unbuilt; a plain upper-triangular copy calls validate once
        calls = []
        checked = colligation.validate

        def counting(sys):
            calls.append(1)
            return checked(sys)

        monkeypatch.setattr(colligation, "validate", counting)
        chain = _draw_chain(rng, 16)
        for z in (1j, -1j, 2.0 + 0.5j):
            transfer_eval(chain, z)
        c_entropy(chain)
        assert not calls and not {"residual", "t_norm", "K", "T"} & set(vars(chain))
        plain = LSystem(chain.T, chain.K)
        for z in (1j, -1j, 2.0 + 0.5j):
            assert transfer_eval(plain, z) == transfer_eval(chain, z)
        assert c_entropy(plain) == c_entropy(chain)
        assert len(calls) == 1
        for sys in (chain, plain):
            d = sys.triangular_diagonal
            assert not d.flags.writeable and d.tobytes() == np.diagonal(sys.T).tobytes()

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("k", [1, 2, 7, 64, 256])
    def test_chains_pass_validate_by_construction(self, rng, scale, k):
        # each Im t_j - fl(k_j)^2 is within 2 eps Im t_j, far below validate's
        # threshold, which the chain's triangular_diagonal relies on
        sys = _chain([scale * draw_upper(rng) for _ in range(k)])
        assert validate(sys).passed
        assert sys.triangular_diagonal.tobytes() == np.diagonal(sys.T).tobytes()

    def test_chain_at_the_edge_of_the_float_range_passes_validate(self):
        # ||T||_F is about 1.4e308, and its plain sum of squares overflows
        sys = _chain([1.0 + 1e308j, 1e308 + 1j, 0.5j])
        assert validate(sys).passed
        assert sys.triangular_diagonal.tobytes() == np.diagonal(sys.T).tobytes()


def _outcome(ev, sys, z):
    """The value of ev at z, or the message of the SingularResolventError it raises."""
    try:
        return ev(sys, z)
    except SingularResolventError as exc:
        return str(exc)


class TestTriangularImpedance:
    """V as the Cayley link of the triangular product, against the resolvent."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The points at which impedance_eval calls the resolvent."""
        resolvent = colligation.impedance_resolvent
        points = []

        def recording(sys, z):
            points.append(z)
            return resolvent(sys, z)

        monkeypatch.setattr(colligation, "impedance_resolvent", recording)
        return points

    @staticmethod
    def _fast(fallbacks, sys, z):
        """impedance_eval at z, which must not fall back to the resolvent."""
        fallbacks.clear()
        v = impedance_eval(sys, z)
        assert not fallbacks, z
        return v

    @staticmethod
    def _cases(rng):
        cases = [_chain([draw_upper(rng) for _ in range(k)]) for k in (1, 2, 5, 16, 64)]
        flipped = _draw_chain(rng, 8)
        # entrywise conjugation gives an upper-triangular J = -1 system
        cases.append(LSystem(flipped.T.conj(), flipped.K.conj(), -1))
        return cases

    def test_matches_resolvent_on_chains(self, rng, fallbacks):
        evals = 0
        for sys in self._cases(rng):
            assert sys.triangular_diagonal is not None
            poles = list(sys.T.diagonal())
            for z in [draw_z(rng, avoid=poles) for _ in range(10)] + [1j, -1j]:
                evals += 1
                got = impedance_eval(sys, z)
                assert rel_err(got, impedance_resolvent(sys, z)) < 1e-12, (sys.dim, sys.J, z)
        # only points near a pole of V (|1 + u| < 1/2) go to the resolvent
        assert len(fallbacks) < evals // 4

    def test_raise_decisions_and_fallback_values_are_the_resolvents(self, rng, fallbacks):
        systems = self._cases(rng) + _guard_systems(rng)
        systems += [_similar(_draw_chain(rng, 6), rng), make_elementary(1e152 + 1j).system]
        fast = 0
        for sys in systems:
            for z in _guard_points(rng, sys):
                fallbacks.clear()
                got = _outcome(impedance_eval, sys, complex(z))
                want = _outcome(impedance_resolvent, sys, complex(z))
                if fallbacks:
                    assert repr(got) == repr(want), (sys.dim, z)
                else:
                    fast += 1
                    assert sys.triangular_diagonal is not None
                    assert not isinstance(want, str), (sys.dim, z, want)
                    assert rel_err(got, want) < 1e-12, (sys.dim, z)
        assert fast > 0

    def test_gated_points_are_bit_identical(self, rng):
        lam = 0.5 + 1j
        chain = _draw_chain(rng, 16)
        cases = [
            # 1 + u vanishes at Re lambda on the axis: the Cayley link would lose
            # about eps/|1 + u| there, so the |1 + u| >= 1/2 gate sends it on
            (make_elementary(lam).system,
             [complex(lam.real, 1e-14), complex(lam.real, -1e-14), 0.5, 0.0, -3.0]),
            (chain, [1.25, complex(0.1, 1e-300), complex(math.inf, 1.0)]),
            (_similar(chain, rng), [1j, complex(0.1, 1e-300)]),
            (LSystem([[2j]], [1.0], 1), [1j, 0.5j]),
            # the second state is cut off from the channel: 0.7 is an eigenvalue
            # of Re T but no pole of V, so only the guard keeps the refusal
            (LSystem([[0.3 + 1j, 0.0], [0.0, 0.7]], [1.0, 0.0], 1),
             [complex(0.7, 1e-17), complex(0.7, -1e-17)]),
            # passes validate with Im t = -1e-12: z = conj(t) divides by zero
            (LSystem([[0.3 - 1e-12j]], [0.0], 1), [complex(0.3, 1e-12)]),
        ]
        raised = 0
        for sys, points in cases:
            for z in points:
                want = _outcome(impedance_resolvent, sys, z)
                raised += isinstance(want, str)
                assert repr(_outcome(impedance_eval, sys, z)) == repr(want), (sys.dim, z)
        assert raised >= 3

    def test_long_chains_near_a_pole_of_w(self, fallbacks):
        # |W| is about 2000**128 at these points, beyond the float range;
        # the product oriented to |u| <= 1 underflows to 0 instead
        chain = _chain([1j] * 128)
        for sys, z in ((chain, 1.001j), (LSystem(chain.T.conj(), chain.K.conj(), -1), -1.001j)):
            got = self._fast(fallbacks, sys, z)
            assert rel_err(got, impedance_resolvent(sys, z)) < 1e-12

    def test_pole_of_w_on_the_diagonal(self, rng, fallbacks):
        sys = _chain([draw_upper(rng), 1j, draw_upper(rng)])
        got = self._fast(fallbacks, sys, 1j)
        assert rel_err(got, impedance_resolvent(sys, 1j)) < 1e-12

    def test_far_from_the_spectrum_keeps_relative_accuracy(self, rng, fallbacks):
        sys = _draw_chain(rng, 16)
        for z in (1e6j, 1e8 - 1e8j, 3e3 + 1.0j):
            got = self._fast(fallbacks, sys, z)
            want = impedance_resolvent(sys, z)
            # V is about -tr Im T / z here, far below the floor of rel_err
            assert abs(got - want) <= 1e-13 * abs(want), z

    def test_against_mpmath(self, rng, fallbacks):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for k in (1, 4, 12):
            lams = [draw_upper(rng) for _ in range(k)]
            sys = _chain(lams)
            t = mpmath.matrix(sys.T.tolist())
            kk = mpmath.matrix(sys.K.tolist())
            re_t = (t + t.H) / 2
            for z in (draw_z(rng, avoid=lams), 1j, lams[-1] + 1e-8, -2e5j):
                x = mpmath.lu_solve(re_t - mpmath.mpc(z) * mpmath.eye(k), kk)
                truth = complex((kk.H * x)[0])
                got = self._fast(fallbacks, sys, z)
                assert abs(got - truth) <= 1e-14 * abs(truth), (k, z)


class TestChainPathBits:
    """The chain path keeps the bytes of the expressions it replaced: W as
    np.prod of the factor quotients, V's telescoped terms formed with
    np.concatenate, S as one np.where over both entropy forms, and validate's
    residual by np.linalg.norm.  Each is compared on this machine with the
    restated expression, so the test needs no pinned digest."""

    @staticmethod
    def _w(d, z):
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(np.prod((d.conj() - z) / (d - z)))

    @staticmethod
    def _v(sys, d, z):
        """V from impedance_eval's triangular branch as written with
        np.concatenate, and whether it summed the telescoped terms; None where
        that branch sends z to the resolvent."""
        if colligation._needs_svd(sys, z, True):
            return None
        sign = 1 if sys.J * z.imag > 0 else -1
        a, b = (d, d.conj()) if sign > 0 else (d.conj(), d)
        with np.errstate(all="ignore"):
            den = b - z
            f, steps = (a - z) / den, (a - b) / den
            p = np.cumprod(f)
            terms = steps * np.concatenate(([1.0], p[:-1]))
            u = complex(p[-1])
            telescoped = float(np.abs(terms).sum()) < 1.0
            one_minus_u = -complex(terms.sum()) if telescoped else 1.0 - u
        if not cmath.isfinite(u) or abs(1.0 + u) < 0.5:
            return None
        return sign * sys.J * 1j * one_minus_u / (1.0 + u), telescoped

    @staticmethod
    def _t_norm(d, k):
        if d.size == 1:
            return float(np.linalg.norm(d))
        m = k.max()
        q = (k / m) ** 2
        cross = float(q[1:] @ q.cumsum()[:-1])
        return math.hypot(*d.view(float).tolist(), 2.0 * math.sqrt(cross) * m * m)

    @staticmethod
    def _chains(rng):
        """Seeded chains of 1 to 256 factors, then chains whose parameters have
        real parts +0.0 and -0.0, which give factor quotients with zero parts."""
        for k in (1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 100, 256):
            yield [draw_upper(rng) for _ in range(k)]
        for k in (1, 2, 3, 6):
            yield [complex(rng.choice([0.0, -0.0]), rng.uniform(0.1, 2.5)) for _ in range(k)]

    @staticmethod
    def _points(rng, lams):
        x0 = lams[0].real
        pts = [draw_z(rng, avoid=lams) for _ in range(4)]
        # zero parts of both signs, and Re z = Re lambda_1
        pts += [1j, -1j, complex(-0.0, 1.0), complex(-0.0, -2.0), complex(0.0, -0.5),
                complex(x0, 0.7), complex(x0, -0.7)]
        # far from the spectrum, where V sums the telescoped terms
        pts += [1e3j, -1e3j, complex(40.0, 25.0), complex(-0.0, 1e6), complex(-1e4, -3e3)]
        # on the real axis and beside it, where V goes to the resolvent
        pts += [complex(0.5, 0.0), complex(0.5, -0.0), complex(x0, 1e-300), complex(-1e4, -0.0)]
        return pts

    def test_values_keep_the_replaced_expressions_bytes(self, rng):
        counts = {"telescoped": 0, "product": 0, "gated": 0}
        for lams in self._chains(rng):
            sys = _chain(lams)
            d = np.array(lams, dtype=complex)
            k = np.sqrt(d.imag)
            rep = validate(sys)
            assert rep.residual.hex() == float(np.linalg.norm(d.imag - k * k)).hex()
            assert rep.threshold.hex() == (colligation.TAU_COLLIGATION * (1.0 + self._t_norm(d, k))).hex()
            assert c_entropy(sys).hex() == float(entropy_by_where(d.real, d.imag).sum()).hex()
            for z in self._points(rng, lams):
                assert _bits([transfer_eval(sys, z)]) == _bits([self._w(d, z)]), (len(lams), z)
                want = self._v(sys, d, z)
                if want is None:
                    counts["gated"] += 1
                    assert (repr(_outcome(impedance_eval, sys, z))
                            == repr(_outcome(impedance_resolvent, sys, z))), (len(lams), z)
                else:
                    counts["telescoped" if want[1] else "product"] += 1
                    assert _bits([impedance_eval(sys, z)]) == _bits([want[0]]), (len(lams), z)
        assert min(counts.values()) > 0, counts

    def test_refusals_keep_their_text(self, rng):
        lams = [draw_upper(rng) for _ in range(12)]
        lams[9] = lams[4]
        sys = _chain(lams)
        for j in (0, 4, 11):
            with pytest.raises(SingularResolventError) as info:
                transfer_eval(sys, lams[j])
            assert str(info.value) == (f"T - zI at z={lams[j]} is singular: z is an eigenvalue of T "
                                       f"(diagonal entry {j} of the triangular T, n=12)")
        # -i on the diagonal of a J = -1 system is a pole of W(-i)
        flipped = _chain(lams[:2] + [1j] + lams[2:4])
        for j_minus, j in ((LSystem(flipped.T.conj(), flipped.K.conj(), -1), 2),
                           (LSystem([[-1j]], [1.0], -1), 0)):
            with pytest.raises(SingularResolventError) as info:
                c_entropy(j_minus)
            assert str(info.value) == ("T - zI at z=-1j is singular: z is an eigenvalue of T "
                                       f"(diagonal entry {j} of the triangular T, n={j_minus.dim})")
        long = _chain([1j] * 128)
        d = long.triangular_diagonal
        with pytest.raises(SingularResolventError) as info:
            transfer_eval(long, 1.001j)
        assert str(info.value) == (
            f"W(z) at z={1.001j} overflows: |W(z)| exceeds the largest float, with z at "
            f"distance {np.abs(d - 1.001j).min():.3e} from an eigenvalue of T (n=128)")

    def test_infinite_z_goes_to_the_resolvent(self, rng):
        for sys in (_draw_chain(rng, 1), _draw_chain(rng, 5)):
            for z in (complex(math.inf, 0.0), complex(-0.0, math.inf), complex(-math.inf, 1.0),
                      complex(2.0, -math.inf)):
                for ev, oracle in ((transfer_eval, transfer_resolvent),
                                   (impedance_eval, impedance_resolvent)):
                    assert repr(_outcome(ev, sys, z)) == repr(_outcome(oracle, sys, z)), (sys.dim, z)
