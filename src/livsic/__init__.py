"""Canonical Livsic L-systems with scalar multiplication operators.

Construction and coupling of finite-dimensional operator colligations,
evaluation of their transfer and impedance functions (read off the
diagonal of a triangular main operator, or by dense resolvent solves),
Donoghue-class classification, c-entropy and dissipation coefficients,
and Foster-form LC circuit synthesis.  Every closed form has a
matrix-resolvent counterpart so the two routes can be cross-checked.

Each exported name loads its submodule on first access (PEP 562), so
``import livsic`` loads no submodule, and a caller pays only for the
submodules it uses.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names the package exports from it
_EXPORTS = {
    "analysis": (
        "DonoghueClass",
        "DonoghueClassification",
        "c_entropy",
        "c_entropy_elementary_closed",
        "c_entropy_resolvent",
        "classify_at_i",
        "classify_elementary",
        "compose_dissipation",
        "compose_entropy",
        "coupling_dissipation_closed",
        "coupling_entropy_closed",
        "dissipation_elementary_closed",
        "dissipation_from_entropy",
        "entropy_surface",
    ),
    "circuit": (
        "FosterSpec",
        "FosterStage",
        "LCStage",
        "Netlist",
        "classify_foster",
        "emit_netlist",
        "foster_mass",
        "foster_to_herglotz",
        "measure_atoms",
        "netlist_to_foster",
        "positive_real_z",
        "skew_coupling_circuit",
        "skew_coupling_foster",
        "synthesize",
    ),
    "colligation": (
        "LSystem",
        "ValidationReport",
        "impedance_eval",
        "impedance_resolvent",
        "transfer_eval",
        "transfer_resolvent",
        "validate",
    ),
    "coupling": (
        "CoupledSystem",
        "couple",
        "coupling_impedance_closed",
        "coupling_transfer_closed",
        "self_skew_coupling",
        "self_skew_impedance_closed",
        "self_skew_transfer_closed",
    ),
    "elementary": (
        "ElementarySystem",
        "impedance_closed",
        "make_elementary",
        "make_skew_adjoint",
        "skew_impedance_closed",
        "skew_transfer_closed",
        "transfer_closed",
    ),
    "errors": (
        "DegenerateError",
        "DimensionError",
        "DomainError",
        "FosterSpecError",
        "IncompatibleError",
        "LivsicError",
        "NotHerglotzAtomicError",
        "NotHerglotzError",
        "PoleError",
        "RangeError",
        "SingularResolventError",
    ),
    "ratfun": (
        "AtomicMeasure",
        "Polynomial",
        "RationalFunction",
        "cayley_v_to_w",
        "cayley_w_to_v",
        "partial_fractions_real_poles",
        "rat_eval",
        "rat_mul",
        "rat_sampled_equal",
    ),
    "verify": ("CheckResult", "run_verification"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
