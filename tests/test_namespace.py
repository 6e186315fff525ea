"""The package namespace: every exported name resolves on first access."""

import json

import pytest
from conftest import run_fresh

import livsic

# the names the package exports, by the submodule that defines each
EXPORTED = {
    "analysis": """DonoghueClass DonoghueClassification c_entropy c_entropy_elementary_closed
                   c_entropy_resolvent classify_at_i classify_elementary compose_dissipation
                   compose_entropy coupling_dissipation_closed coupling_entropy_closed
                   dissipation_elementary_closed dissipation_from_entropy entropy_surface""",
    "circuit": """FosterSpec FosterStage LCStage Netlist classify_foster emit_netlist foster_mass
                  foster_to_herglotz measure_atoms netlist_to_foster positive_real_z
                  skew_coupling_circuit skew_coupling_foster synthesize""",
    "colligation": """LSystem ValidationReport impedance_eval impedance_resolvent transfer_eval
                      transfer_resolvent validate""",
    "coupling": """CoupledSystem couple coupling_impedance_closed coupling_transfer_closed
                   self_skew_coupling self_skew_impedance_closed self_skew_transfer_closed""",
    "elementary": """ElementarySystem impedance_closed make_elementary make_skew_adjoint
                     skew_impedance_closed skew_transfer_closed transfer_closed""",
    "errors": """DegenerateError DimensionError DomainError FosterSpecError IncompatibleError
                 LivsicError NotHerglotzAtomicError NotHerglotzError PoleError RangeError
                 SingularResolventError""",
    "ratfun": """AtomicMeasure Polynomial RationalFunction cayley_v_to_w cayley_w_to_v
                 partial_fractions_real_poles rat_eval rat_mul rat_sampled_equal""",
    "verify": "CheckResult run_verification",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def test_seventy_one_names_from_eight_submodules():
    assert len(NAMES) == 71 and len(EXPORTED) == 8


def test_every_name_resolves_on_first_access_to_its_submodule_object():
    code = ("import importlib, json, sys, livsic\n"
            "for module in sorted({module for module, _ in json.loads(sys.argv[1])}):\n"
            "    if getattr(livsic, module) is not sys.modules[f'livsic.{module}']: print(module)\n"
            "for module, name in json.loads(sys.argv[1]):\n"
            "    obj = getattr(importlib.import_module(f'livsic.{module}'), name)\n"
            "    if getattr(livsic, name) is not obj: print(name)\n")
    assert run_fresh(code, json.dumps(NAMES)) == ""


def test_version():
    assert livsic.__version__ == "0.1.0"


def test_dir_and_star_import_list_every_name():
    public = {name for _, name in NAMES} | set(EXPORTED)
    assert set(livsic.__all__) == public and len(livsic.__all__) == 79
    assert public | {"__version__"} <= set(dir(livsic))
    namespace = {}
    exec("from livsic import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def test_a_removed_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'livsic' has no attribute 'rat_add'$"):
        livsic.rat_add
    assert not hasattr(livsic, "rat_add")


def test_import_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, livsic; names = dir(livsic); "
            "print(sorted(m for m in sys.modules if m.startswith('livsic'))); "
            "livsic.c_entropy; print('livsic.analysis' in sys.modules, 'livsic.circuit' in sys.modules)")
    assert run_fresh(code) == "['livsic']\nTrue False\n"
