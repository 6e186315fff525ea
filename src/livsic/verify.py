"""Seeded cross-check suite: closed forms against the resolvent oracle.

Every identity the package relies on is exercised over a reproducible
random sample and the worst residual reported.  Residuals are relative
with an absolute floor of one, so values near zero do not blow up the
ratio.

The oracle's values come from four stacked solves of ``colligation``'s
guarded kernel, one per state dimension (1x1 or 2x2) and operator (T or
Re T), each with the bytes of its one-system call; where the oracle
refuses, the first refusal in stack order raises.  Each closed form is
evaluated once over its system's points, and the Cayley round trip once per
function over its sample points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import analysis, coupling, elementary, ratfun
from .colligation import TAU_COLLIGATION, _solve_guarded, validate


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


def _uniform(rng, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi) by numpy's own formula, its bytes at a third of the cost."""
    return lo + (hi - lo) * rng.random()


def _draw_param(rng) -> complex:
    return complex(_uniform(rng, -2.0, 2.0), _uniform(rng, 0.1, 2.5))


def _draw_z(rng, avoid=()) -> complex:
    while True:
        z = complex(_uniform(rng, -3.0, 3.0),
                    _uniform(rng, 0.2, 2.5) * (-1.0, 1.0)[rng.integers(0, 2)])
        if all(abs(z - p) > 0.15 for p in avoid):
            return z


#: Points z drawn per system for the pointwise checks.
N_POINTS = 5


def run_verification(seed: int = 42, n_systems: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    params = [_draw_param(rng) for _ in range(n_systems)]
    pairs = [(_draw_param(rng), _draw_param(rng)) for _ in range(n_systems)]
    # evaluation draws nothing, so every system is built and every point drawn first
    elems = [(elementary.make_elementary(lam).system, elementary.make_skew_adjoint(lam).system)
             for lam in params]
    blocks = [coupling.self_skew_coupling(lam).system for lam in params]
    elem_zs = [[_draw_z(rng, avoid=(lam, -lam.conjugate())) for _ in range(N_POINTS)]
               for lam in params]
    factors = [tuple(elementary.make_elementary(p).system for p in pair) for pair in pairs]
    coupled = [coupling.couple(*f).system for f in factors]
    pair_zs = [[_draw_z(rng, avoid=pair) for _ in range(N_POINTS)] for pair in pairs]
    kappa_params = [rng.uniform(0.05, 0.95, 2) for _ in range(n_systems)]
    kappa_sys = [coupling.couple(*(elementary.make_elementary(1j * a).system for a in ap)).system
                 for ap in kappa_params]
    halves = blocks[: n_systems // 2]

    # one stack of the 1x1 systems and one of the 2x2 ones, for T and for Re T
    elem_items = [(s, zs) for e, zs in zip(elems, elem_zs) for s in e]
    w1 = _solve_guarded(elem_items + [(s, zs) for f, zs in zip(factors, pair_zs) for s in f], False)
    v1 = _solve_guarded(elem_items, True)
    w2 = _solve_guarded([(s, zs + [-1j]) for s, zs in zip(coupled, pair_zs)]
                        + [(s, [-1j]) for s in halves], False)
    v2 = _solve_guarded([(s, zs) for s, zs in zip(coupled, pair_zs)]
                        + [(s, [1j]) for s in kappa_sys + halves], True)

    def scaled_residual(s) -> float:
        # residual normalized by (1 + ||T||), comparable against the tol itself
        rep = validate(s)
        return rep.residual * TAU_COLLIGATION / rep.threshold

    colligation_worst = max((scaled_residual(s) for s in [*itertools.chain(*elems), *blocks, *coupled]),
                            default=0.0)

    def worst(closed, zs, oracle) -> float:
        # each closed form is evaluated once over the points of its system
        return max(map(_rel, ratfun.rat_eval(closed, zs), oracle))

    elem_w = elem_v = skew_w = skew_v = 0.0
    cayley_sys = 0.0
    for k, (lam, zs) in enumerate(zip(params, elem_zs)):
        w, v, wx, vx = w1[2 * k], v1[2 * k], w1[2 * k + 1], v1[2 * k + 1]
        elem_w = max(elem_w, worst(elementary.transfer_closed(lam), zs, w))
        elem_v = max(elem_v, worst(elementary.impedance_closed(lam), zs, v))
        skew_w = max(skew_w, worst(elementary.skew_transfer_closed(lam), zs, wx))
        skew_v = max(skew_v, worst(elementary.skew_impedance_closed(lam), zs, vx))
        cayley_sys = max(cayley_sys, *(_rel(1j * (wz - 1.0) / (wz + 1.0), vz) for wz, vz in zip(w, v)))

    mult = imp = ent = diss = 0.0
    w_factors = w1[2 * n_systems:]
    for k, ((lam, mu), zs) in enumerate(zip(pairs, pair_zs)):
        *ws, w_minus_i = w2[k]
        wa, wb = w_factors[2 * k], w_factors[2 * k + 1]
        mult = max(mult, *(_rel(w, a * b) for w, a, b in zip(ws, wa, wb)))
        imp = max(imp, worst(coupling.coupling_impedance_closed(lam, mu), zs, v2[k]))
        s_oracle = analysis._entropy_of_w(w_minus_i)
        d_oracle = analysis.dissipation_from_entropy(s_oracle)
        ent = max(ent, _rel(s_oracle, analysis.coupling_entropy_closed(lam, mu)))
        d_comp = analysis.compose_dissipation(analysis.dissipation_elementary_closed(lam),
                                              analysis.dissipation_elementary_closed(mu))
        d_closed = analysis.coupling_dissipation_closed(lam, mu)
        diss = max(diss, _rel(d_comp, d_closed), _rel(d_comp, d_oracle))

    kap = 0.0
    for (a1, a2), (v_i,) in zip(kappa_params, v2[n_systems:]):
        k12 = analysis.classify_at_i(v_i).kappa
        k1 = analysis.classify_elementary(1j * a1).kappa
        k2 = analysis.classify_elementary(1j * a2).kappa
        kap = max(kap, abs(k12 - k1 * k2))

    selfskew = 0.0
    for lam, (w_minus_i,), (v_i,) in zip(params, w2[n_systems:], v2[2 * n_systems:]):
        s_single = analysis.c_entropy_elementary_closed(lam)
        d_single = analysis.dissipation_elementary_closed(lam)
        s_oracle = analysis._entropy_of_w(w_minus_i)
        d_oracle = analysis.dissipation_from_entropy(s_oracle)
        selfskew = max(selfskew, _rel(s_oracle, 2.0 * s_single))
        selfskew = max(selfskew, _rel(d_oracle, 2.0 * d_single - d_single ** 2))
        v_expected = 2j * lam.imag / (abs(lam) ** 2 + 1.0)
        selfskew = max(selfskew, _rel(v_i, v_expected))

    roundtrip = 0.0
    samples = ratfun._sample_points()[: ratfun.N_SAMPLE_POINTS]
    for _ in range(n_systems):
        dn, dd = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        num = rng.normal(size=dn) + 1j * rng.normal(size=dn)
        den = rng.normal(size=dd) + 1j * rng.normal(size=dd)
        v = ratfun.RationalFunction(num, den)
        back = ratfun.cayley_w_to_v(ratfun.cayley_v_to_w(v))
        roundtrip = max(roundtrip, *map(_rel, ratfun.rat_eval(back, samples), ratfun.rat_eval(v, samples)))

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
