"""Finite *-ring toolkit: construction, classification, Conrad order,
central covers, orthomodularity of initial segments, and a theorem suite
verified by exhaustive enumeration."""

from .analysis import (
    CentralCoverTable,
    CheckResult,
    ClassificationReport,
    central_cover,
    classify,
    cover_table,
)
from .errors import (
    ForeignElementError,
    OrderCapError,
    PreconditionError,
    RingSpecError,
    TableValidationError,
    VerificationError,
)
from .fuzz import FAMILIES, FuzzConfig, FuzzReport, fuzz, structural_specs
from .order import (
    OrderStructure,
    SegmentPoset,
    build_order,
    hasse_dot,
    initial_segment,
    is_lattice,
    is_pseudo_lattice,
    join,
    meet,
)
from .rings import (
    DEFAULT_ORDER_CAP,
    MatrixSpec,
    ModularSpec,
    ProductSpec,
    RingSpec,
    StarRing,
    TableSpec,
    build_from_tables,
    build_matrix,
    build_modular,
    build_product,
    realize,
    ring_to_table_spec,
    spec_from_json,
    spec_to_json,
)
from .theorems import THEOREM_IDS, TheoremVerdict, replay, run_suite, run_theorem

__version__ = "0.1.0"
