"""Canonical Livsic L-systems with scalar multiplication operators.

Construction and coupling of finite-dimensional operator colligations,
evaluation of their transfer and impedance functions (read off the
diagonal of a triangular main operator, or by dense resolvent solves),
Donoghue-class classification, c-entropy and dissipation coefficients,
and Foster-form LC circuit synthesis.  Every closed form has a
matrix-resolvent counterpart so the two routes can be cross-checked.
"""

from .analysis import (
    DonoghueClass,
    DonoghueClassification,
    c_entropy,
    c_entropy_elementary_closed,
    c_entropy_resolvent,
    classify_at_i,
    classify_elementary,
    compose_dissipation,
    compose_entropy,
    coupling_dissipation_closed,
    coupling_entropy_closed,
    dissipation_elementary_closed,
    dissipation_from_entropy,
    entropy_surface,
)
from .circuit import (
    FosterSpec,
    FosterStage,
    LCStage,
    Netlist,
    classify_foster,
    emit_netlist,
    foster_mass,
    foster_to_herglotz,
    measure_atoms,
    netlist_to_foster,
    positive_real_z,
    skew_coupling_circuit,
    skew_coupling_foster,
    synthesize,
)
from .colligation import (
    LSystem,
    ValidationReport,
    impedance_eval,
    impedance_resolvent,
    transfer_eval,
    transfer_resolvent,
    validate,
)
from .coupling import (
    CoupledSystem,
    couple,
    coupling_impedance_closed,
    coupling_transfer_closed,
    self_skew_coupling,
    self_skew_impedance_closed,
    self_skew_transfer_closed,
)
from .elementary import (
    ElementarySystem,
    impedance_closed,
    make_elementary,
    make_skew_adjoint,
    skew_impedance_closed,
    skew_transfer_closed,
    transfer_closed,
)
from .errors import (
    DegenerateError,
    DimensionError,
    DomainError,
    FosterSpecError,
    IncompatibleError,
    LivsicError,
    NotHerglotzAtomicError,
    NotHerglotzError,
    PoleError,
    RangeError,
    SingularResolventError,
)
from .ratfun import (
    AtomicMeasure,
    Polynomial,
    RationalFunction,
    cayley_v_to_w,
    cayley_w_to_v,
    partial_fractions_real_poles,
    rat_eval,
    rat_mul,
    rat_sampled_equal,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"
