"""Matrix-backed canonical L-systems and resolvent evaluation.

An L-system here is a colligation (T, K, J) on a finite-dimensional state
space with a one-dimensional input-output space: T is the main operator,
K the channel column, and J = +/-1 the directing sign, tied together by
the colligation identity Im T = K J K*.

The two evaluators below work directly off dense linear solves and serve
as the independent oracle for every closed form in the package:

    transfer(z)  = 1 - 2i K* (T - zI)^(-1) K J
    impedance(z) = K* (Re T - zI)^(-1) K
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, SingularResolventError

#: Bound on ||Im T - K J K*|| / (1 + ||T||) for a valid system.
TAU_COLLIGATION = 1e-9

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LSystem:
    """Colligation (T, K, J) with scalar input-output space.

    T is n-by-n complex, K a length-n complex column, J is +1 or -1.
    Construction checks shapes only; use :func:`validate` to test the
    colligation identity itself (deliberately broken systems must remain
    constructible so that validation can report on them).
    """

    T: np.ndarray
    K: np.ndarray
    J: int

    def __init__(self, T, K, J=1):
        T = np.array(T, dtype=complex, ndmin=2)
        K = np.array(K, dtype=complex).reshape(-1)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise DimensionError(f"main operator must be square, got {T.shape}")
        if K.shape[0] != T.shape[0]:
            raise DimensionError(
                f"channel length {K.shape[0]} != state dimension {T.shape[0]}")
        # True == 1, so a bool would pass the membership test as J = +1
        if isinstance(J, (bool, np.bool_)) or J not in (1, -1):
            raise DimensionError(f"directing sign must be +1 or -1, got {J!r}")
        if not (np.isfinite(T).all() and np.isfinite(K).all()):
            raise ValueError("non-finite entries in system matrices")
        self._store(T, K, J)

    @classmethod
    def _adopt(cls, T: np.ndarray, K: np.ndarray, J: int) -> LSystem:
        """Take fresh, finite complex arrays of matching shape without a
        copy or a check.  The caller must hold no other reference to them."""
        self = object.__new__(cls)
        self._store(T, K, J)
        return self

    def _store(self, T: np.ndarray, K: np.ndarray, J) -> None:
        T.flags.writeable = False
        K.flags.writeable = False
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "J", int(J))

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the main operator."""
        return np.linalg.eigvals(self.T)

    @cached_property
    def residual(self) -> float:
        """Colligation residual ||Im T - J K K*|| (Frobenius)."""
        im_t = (self.T - self.T.conj().T) / 2j
        return float(np.linalg.norm(im_t - self.J * np.outer(self.K, self.K.conj())))

    @cached_property
    def im_strip(self) -> tuple[float, float]:
        """Interval [lo, hi] holding Im x*Tx for every unit vector x.

        x* Im T x = J|K*x|^2 + x*Ex with ||E|| <= residual, so the numerical
        range of T lies in the strip lo <= Im <= hi even for a broken system.
        """
        jk2 = self.J * float(np.vdot(self.K, self.K).real)
        return min(0.0, jk2) - self.residual, max(0.0, jk2) + self.residual


@dataclass(frozen=True)
class ValidationReport:
    residual: float
    threshold: float
    passed: bool


def validate(sys: LSystem) -> ValidationReport:
    """Check the colligation identity Im T = K J K*.

    The residual ||(T - T*)/2i - J K K*|| (Frobenius) is compared against
    TAU_COLLIGATION * (1 + ||T||).
    """
    threshold = TAU_COLLIGATION * (1.0 + float(np.linalg.norm(sys.T)))
    return ValidationReport(sys.residual, threshold, sys.residual <= threshold)


def _solve_guarded(a: np.ndarray, b: np.ndarray, floor: float, op: str, z: complex) -> np.ndarray:
    """Solve a x = b unless a is numerically singular: sigma_min(a) <= n*eps*sigma_max(a).

    ``floor`` is a proven lower bound on sigma_min(a), from the numerical
    range W(A) of the unshifted operator: sigma_min(A - zI) >= dist(z, W(A)).
    The SVD runs only when
    floor <= 2*n*eps*||a||_F.  Above that, sigma_min exceeds twice the
    threshold (||a||_F >= sigma_max), and the remaining n*eps*||a||_F
    absorbs the O(eps*||a||) rounding in floor and in the SVD, so the SVD
    test could not fire.  n reaches 256 on chains of couplings, where the
    SVD costs several times the solve.
    """
    tol = a.shape[0] * _EPS
    if floor <= 0.0 or floor <= 2.0 * tol * float(np.linalg.norm(a)):
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= tol * s[0]:
            raise SingularResolventError(
                f"{op} at z={z} is numerically singular or ill-conditioned: n={a.shape[0]}, "
                f"sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e}")
    return np.linalg.solve(a, b)


def transfer_eval(sys: LSystem, z: complex) -> complex:
    """Transfer function by resolvent: 1 - 2i K*(T - zI)^(-1) K J."""
    z = complex(z)
    a = sys.T.copy()
    a.flat[:: sys.dim + 1] -= z
    lo, hi = sys.im_strip
    x = _solve_guarded(a, sys.K, max(lo - z.imag, z.imag - hi), "T - zI", z)
    return complex(1.0 - 2j * np.vdot(sys.K, x) * sys.J)


def impedance_eval(sys: LSystem, z: complex) -> complex:
    """Impedance function by resolvent: K*(Re T - zI)^(-1) K."""
    z = complex(z)
    a = sys.T + sys.T.conj().T
    a /= 2.0
    # Re T is exactly Hermitian, so a = Re T - zI is normal with sigma_min >= |Im z|
    a.flat[:: sys.dim + 1] -= z
    x = _solve_guarded(a, sys.K, abs(z.imag), "Re T - zI", z)
    return complex(np.vdot(sys.K, x))

