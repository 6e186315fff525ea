"""Foster-form reactance data and LC ladder synthesis.

Foster data (a0, {(a_k, b_k)}) with a0 >= 0, a_k > 0 and distinct b_k > 0
describes the rational Herglotz function

    M(z) = -a0/z + sum_k a_k z / (b_k^2 - z^2),

whose representing measure is atomic: mass a0 at the origin and a_k/2 at
+/- b_k.  The substitution Z(p) = M(ip)/i produces a positive-real
driving-point impedance

    Z(p) = a0/p + sum_k a_k p / (b_k^2 + p^2),

realized as a series chain: a capacitor 1/a0 (absent when a0 = 0)
followed by parallel LC blocks with L_k = a_k/b_k^2 and C_k = 1/a_k, each
resonating at b_k = 1/sqrt(L_k C_k).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .analysis import DonoghueClassification, classify_at_i
from .elementary import _check_upper
from .errors import FosterSpecError, RangeError
from .ratfun import AtomicMeasure, _PoleResidue


@dataclass(frozen=True)
class FosterStage:
    a: float
    b: float


@dataclass(frozen=True)
class FosterSpec:
    a0: float
    stages: tuple[FosterStage, ...]

    def __init__(self, a0: float, stages=()):
        a0 = float(a0)
        stages = tuple(
            s if isinstance(s, FosterStage) else FosterStage(float(s[0]), float(s[1]))
            for s in stages)
        if not 0 <= a0 < math.inf:
            raise FosterSpecError(f"origin weight a0 must be finite and >= 0, got {a0}")
        for k, s in enumerate(stages, 1):
            if not (0 < s.a < math.inf and 0 < s.b < math.inf):
                raise FosterSpecError(f"stage weights must be finite and positive, got {s}")
            # every consumer divides by b^2; a zero or subnormal b^2 has lost its
            # precision, and an infinite one reads as an open circuit
            b2 = s.b * s.b
            if b2 < sys.float_info.min:
                raise FosterSpecError(
                    f"stage {k} resonance {s.b!r} is too small: b^2 = {b2!r} "
                    f"is below the smallest normal float")
            if b2 == math.inf:
                raise FosterSpecError(
                    f"stage {k} resonance {s.b!r} is too large: b^2 overflows "
                    f"the largest float")
        bs = [s.b for s in stages]
        if len(set(bs)) != len(bs):
            raise FosterSpecError(f"resonances must be pairwise distinct, got {bs}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "stages", stages)

    @cached_property
    def _measure(self) -> AtomicMeasure:
        # built on first read, not here: a spec that is only synthesized never
        # reads it, and a failed build caches nothing, so it raises on every read
        atoms = []
        if self.a0 > 0:
            atoms.append((0.0, self.a0))
        for k, s in enumerate(self.stages, 1):
            w = s.a / 2.0
            if w == 0.0:
                raise FosterSpecError(f"stage {k} weight {s.a!r} is too small: a/2 underflows to 0")
            atoms.append((s.b, w))
            atoms.append((-s.b, w))
        return AtomicMeasure(atoms)


@dataclass(frozen=True)
class LCStage:
    inductance: float
    capacitance: float

    @property
    def resonance(self) -> float:
        lc = self.inductance * self.capacitance
        # where L*C falls below the smallest normal float it has lost digits or vanished
        if lc < sys.float_info.min:
            return 1.0 / (math.sqrt(self.inductance) * math.sqrt(self.capacitance))
        return 1.0 / math.sqrt(lc)


@dataclass(frozen=True)
class Netlist:
    """Series chain of parallel LC blocks, optionally led by a capacitor."""

    series_capacitor: float | None
    stages: tuple[LCStage, ...]

    def __post_init__(self):
        # a subnormal value has lost digits, so its netlist line would be wrong
        tiny = sys.float_info.min
        c0 = self.series_capacitor
        if c0 is not None:
            if not 0 < c0 < math.inf:
                raise FosterSpecError(f"series capacitance must be finite and positive, got {c0}")
            if c0 < tiny:
                raise FosterSpecError(f"component value {c0!r} is below the smallest normal float")
        for s in self.stages:
            ind, cap = s.inductance, s.capacitance
            if not (0 < ind < math.inf and 0 < cap < math.inf):
                raise FosterSpecError(f"stage component values must be finite and positive, got {s}")
            if ind < tiny or cap < tiny:
                v = ind if ind < tiny else cap
                raise FosterSpecError(f"component value {v!r} is below the smallest normal float")


def foster_to_herglotz(spec: FosterSpec) -> AtomicMeasure:
    """M(z) = -a0/z + sum a_k z/(b_k^2 - z^2) = sum w_j/(t_j - z): the Cauchy
    transform of its measure, so M is the :func:`measure_atoms` record itself."""
    return measure_atoms(spec)


def measure_atoms(spec: FosterSpec) -> AtomicMeasure:
    """Atomic representing measure: a0 at 0 and a_k/2 at +/- b_k, built once
    per spec, on first read; FosterSpecError, on every call, where a_k/2 is 0."""
    return spec._measure


def foster_mass(spec: FosterSpec) -> float:
    """a = a0 + sum a_k/(b_k^2 + 1) = Im M(i), the class-deciding number."""
    return spec.a0 + sum(s.a / (s.b * s.b + 1.0) for s in spec.stages)


def classify_foster(spec: FosterSpec) -> DonoghueClassification:
    """Donoghue class of M from circuit data; M(i) = i * foster_mass, which is
    positive for every spec with a stage: RangeError where it underflows or
    overflows."""
    a = foster_mass(spec)
    if a == 0.0 and spec.stages:
        raise RangeError(f"Im M(i) = a0 + sum a_k/(b_k^2 + 1) is below the float range "
                         f"for {len(spec.stages)} stage(s)")
    if math.isinf(a):
        raise RangeError(f"Im M(i) = a0 + sum a_k/(b_k^2 + 1) exceeds the float range "
                         f"for a0 = {spec.a0} and {len(spec.stages)} stage(s)")
    return classify_at_i(1j * a)


def synthesize(spec: FosterSpec) -> Netlist:
    """Component values for the series chain realizing Z(p)."""
    c0 = 1.0 / spec.a0 if spec.a0 > 0 else None
    stages = tuple(LCStage(s.a / (s.b * s.b), 1.0 / s.a) for s in spec.stages)
    return Netlist(c0, stages)


def netlist_to_foster(netlist: Netlist) -> FosterSpec:
    """Recover Foster data: a0 = 1/C0, a_k = 1/C_k, b_k = 1/sqrt(L_k C_k)."""
    a0 = 0.0 if netlist.series_capacitor is None else 1.0 / netlist.series_capacitor
    return FosterSpec(a0, [(1.0 / s.capacitance, s.resonance) for s in netlist.stages])


def positive_real_z(spec: FosterSpec) -> _PoleResidue:
    """Z(p) = M(ip)/i = a0/p + sum a_k p/(b_k^2 + p^2), positive-real in p,
    recorded by its poles -i t_j and weights -w_j alone, for the atoms
    (t_j, w_j) of :func:`measure_atoms`; its partial fractions refuse them."""
    return _PoleResidue(tuple((complex(0.0, -t), -w) for t, w in measure_atoms(spec).atoms))


def skew_coupling_foster(lambda0: complex) -> FosterSpec:
    """Foster data of the impedance of the coupling of an elementary
    system with its skew-adjoint companion: single stage with weight
    2 Im(lambda0) at resonance |lambda0| (so M(z) = 2 Im(l) z/(|l|^2 - z^2))."""
    lambda0 = _check_upper(lambda0)
    try:
        b = abs(lambda0)
    except OverflowError:
        raise RangeError(f"|lambda0| of {lambda0} exceeds the float range") from None
    return FosterSpec(0.0, [(2.0 * lambda0.imag, b)])


def skew_coupling_circuit(lambda0: complex) -> Netlist:
    """Parallel LC block attached to the elementary/skew-adjoint coupling:
    L = Im(lambda0)/|lambda0|^2 and C = 1/Im(lambda0), the synthesis of
    :func:`skew_coupling_foster` at half its stage weight (same resonance
    |lambda0|), so its impedance is half V of the self-skew coupling.
    """
    (stage,) = skew_coupling_foster(lambda0).stages
    return synthesize(FosterSpec(0.0, [(stage.a / 2.0, stage.b)]))


def emit_netlist(netlist: Netlist) -> str:
    """Deterministic line-oriented netlist text.

    Optional series capacitor line first, then per-stage inductor and
    capacitor lines sharing a node pair (parallel block); values printed
    with 12 significant digits; LF line endings; terminated by ".end".
    """
    lines = []
    node = 0
    if netlist.series_capacitor is not None:
        lines.append(f"C0 n{node} n{node + 1} {netlist.series_capacitor:#.12g}")
        node += 1
    for k, s in enumerate(netlist.stages, start=1):
        lines.append(f"L{k} n{node} n{node + 1} {s.inductance:#.12g}")
        lines.append(f"C{k} n{node} n{node + 1} {s.capacitance:#.12g}")
        node += 1
    lines.append(".end")
    return "\n".join(lines) + "\n"

