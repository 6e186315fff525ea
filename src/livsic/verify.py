"""Seeded cross-check suite: closed forms against the resolvent oracle.

Every identity the package relies on is exercised over a reproducible
random sample and the worst residual reported.  Residuals are relative
with an absolute floor of one, so values near zero do not blow up the
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, coupling, elementary, ratfun
from .colligation import TAU_COLLIGATION, impedance_resolvent, transfer_resolvent, validate


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _draw_param(rng) -> complex:
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.5))


def _draw_z(rng, avoid=()) -> complex:
    while True:
        z = complex(rng.uniform(-3.0, 3.0),
                    rng.uniform(0.2, 2.5) * (-1.0, 1.0)[rng.integers(0, 2)])
        if all(abs(z - p) > 0.15 for p in avoid):
            return z


#: Points z drawn per system for the pointwise checks.
N_POINTS = 5


def run_verification(seed: int = 42, n_systems: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    params = [_draw_param(rng) for _ in range(n_systems)]
    pairs = [(_draw_param(rng), _draw_param(rng)) for _ in range(n_systems)]

    colligation_worst = 0.0

    def scaled_residual(s) -> float:
        # residual normalized by (1 + ||T||), comparable against the tol itself
        rep = validate(s)
        return rep.residual * TAU_COLLIGATION / rep.threshold

    elem_w = elem_v = skew_w = skew_v = 0.0
    cayley_sys = 0.0
    blocks = []
    for lam in params:
        sys = elementary.make_elementary(lam).system
        xsys = elementary.make_skew_adjoint(lam).system
        blocks.append(coupling.self_skew_coupling(lam))
        for s in (sys, xsys, blocks[-1].system):
            colligation_worst = max(colligation_worst, scaled_residual(s))
        w_closed = elementary.transfer_closed(lam)
        v_closed = elementary.impedance_closed(lam)
        wx_closed = elementary.skew_transfer_closed(lam)
        vx_closed = elementary.skew_impedance_closed(lam)
        # evaluation draws nothing, so the points can all be drawn first
        zs = [_draw_z(rng, avoid=(lam, -lam.conjugate())) for _ in range(N_POINTS)]
        for z, w, v, wx, vx in zip(zs, transfer_resolvent(sys, zs), impedance_resolvent(sys, zs),
                                   transfer_resolvent(xsys, zs), impedance_resolvent(xsys, zs)):
            elem_w = max(elem_w, _rel(ratfun.rat_eval(w_closed, z), w))
            elem_v = max(elem_v, _rel(ratfun.rat_eval(v_closed, z), v))
            skew_w = max(skew_w, _rel(ratfun.rat_eval(wx_closed, z), wx))
            skew_v = max(skew_v, _rel(ratfun.rat_eval(vx_closed, z), vx))
            cayley_sys = max(cayley_sys, _rel(1j * (w - 1.0) / (w + 1.0), v))

    mult = imp = ent = diss = 0.0
    for lam, mu in pairs:
        sys1, sys2 = (elementary.make_elementary(p).system for p in (lam, mu))
        coupled = coupling.couple(sys1, sys2)
        colligation_worst = max(colligation_worst, scaled_residual(coupled.system))
        v_closed = coupling.coupling_impedance_closed(lam, mu)
        zs = [_draw_z(rng, avoid=(lam, mu)) for _ in range(N_POINTS)]
        for z, w1, w2, w, v in zip(zs, transfer_resolvent(sys1, zs), transfer_resolvent(sys2, zs),
                                   transfer_resolvent(coupled.system, zs),
                                   impedance_resolvent(coupled.system, zs)):
            mult = max(mult, _rel(w, w1 * w2))
            imp = max(imp, _rel(ratfun.rat_eval(v_closed, z), v))
        s_oracle = analysis.c_entropy_resolvent(coupled.system)
        d_oracle = analysis.dissipation_from_entropy(s_oracle)
        ent = max(ent, _rel(s_oracle, analysis.coupling_entropy_closed(lam, mu)))
        d_comp = analysis.compose_dissipation(analysis.dissipation_elementary_closed(lam),
                                              analysis.dissipation_elementary_closed(mu))
        d_closed = analysis.coupling_dissipation_closed(lam, mu)
        diss = max(diss, _rel(d_comp, d_closed), _rel(d_comp, d_oracle))

    kap = 0.0
    for _ in range(n_systems):
        a1, a2 = rng.uniform(0.05, 0.95, 2)
        coupled = coupling.couple(elementary.make_elementary(1j * a1).system,
                                  elementary.make_elementary(1j * a2).system)
        k12 = analysis.classify_at_i(impedance_resolvent(coupled.system, 1j)).kappa
        k1 = analysis.classify_elementary(1j * a1).kappa
        k2 = analysis.classify_elementary(1j * a2).kappa
        kap = max(kap, abs(k12 - k1 * k2))

    selfskew = 0.0
    for lam, block in zip(params[: n_systems // 2], blocks):
        s_single = analysis.c_entropy_elementary_closed(lam)
        d_single = analysis.dissipation_elementary_closed(lam)
        s_oracle = analysis.c_entropy_resolvent(block.system)
        d_oracle = analysis.dissipation_from_entropy(s_oracle)
        selfskew = max(selfskew, _rel(s_oracle, 2.0 * s_single))
        selfskew = max(selfskew, _rel(d_oracle, 2.0 * d_single - d_single ** 2))
        v_i = impedance_resolvent(block.system, 1j)
        v_expected = 2j * lam.imag / (abs(lam) ** 2 + 1.0)
        selfskew = max(selfskew, _rel(v_i, v_expected))

    roundtrip = 0.0
    for _ in range(n_systems):
        dn, dd = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        num = rng.normal(size=dn) + 1j * rng.normal(size=dn)
        den = rng.normal(size=dd) + 1j * rng.normal(size=dd)
        v = ratfun.RationalFunction(num, den)
        back = ratfun.cayley_w_to_v(ratfun.cayley_v_to_w(v))
        for z in ratfun._sample_points()[: ratfun.N_SAMPLE_POINTS]:
            roundtrip = max(roundtrip, _rel(ratfun.rat_eval(back, z), ratfun.rat_eval(v, z)))

    return [
        CheckResult("colligation identity residual", colligation_worst, TAU_COLLIGATION),
        CheckResult("elementary transfer closed vs resolvent", elem_w, 1e-10),
        CheckResult("elementary impedance closed vs resolvent", elem_v, 1e-10),
        CheckResult("skew-adjoint transfer closed vs resolvent", skew_w, 1e-10),
        CheckResult("skew-adjoint impedance closed vs resolvent", skew_v, 1e-10),
        CheckResult("cayley link of resolvent transfer and impedance", cayley_sys, 1e-10),
        CheckResult("coupling transfer vs product of factors", mult, 1e-10),
        CheckResult("coupling impedance closed vs resolvent", imp, 1e-10),
        CheckResult("entropy additivity vs resolvent", ent, 1e-10),
        CheckResult("dissipation composition (three routes)", diss, 1e-10),
        CheckResult("kappa multiplicativity at i", kap, 1e-12),
        CheckResult("self-skew coupling identities", selfskew, 1e-10),
        CheckResult("cayley rational round trip", roundtrip, 1e-12),
    ]
