"""ergolab: exact verification of conditional-expectation-preserving dynamics.

A finite weighted atom space carries two operators: blockwise weighted
averaging (a conditional expectation) and the composition operator of an atom
self-map.  When the pair is compatible, ergodicity can be characterized many
ways -- invariant components, absorbing components, orbit sweep-out, time
averages, correlation decoupling, norm preservation -- and on this model each
characterization is an exactly decidable procedure.  This package implements
them all in rational arithmetic, cross-validates them against brute-force
oracles, and ships a batch CLI for campaigns.
"""

from .caps import DEFAULT_CAP, CapExceededError
from .checks import Check, CheckReport
from .condexp import ConditionalExpectation, verify_axioms
from .ergodicity import (
    CORRELATION_VARIANTS,
    CRITERIA,
    CesaroTrace,
    ErgodicityReport,
    birkhoff_limit,
    cesaro_error_bound,
    cesaro_mean,
    cesaro_sweep,
    cesaro_trace,
    check_isometry,
    correlation_limit,
    decide_absorbing,
    decide_correlation,
    decide_definition,
    decide_sweep_out,
    decide_time_average,
    full_report,
)
from .oracle import enumerate_components, oracle_birkhoff, oracle_ergodic
from .riesz import (
    Component,
    DimensionMismatch,
    RieszVector,
    StepFunction,
    band_projection_component,
    basis_vector,
    freudenthal_approx,
    is_component,
    rational,
    sup_norm,
    unit,
    zero,
)
from .system import (
    CepsSystem,
    InvalidSystemError,
    KoopmanMap,
    SchemaError,
    check_range_fixed,
    load_system,
    random_system,
    random_vector,
    save_system,
    system_from_dict,
    system_to_dict,
    validate_system,
)

__version__ = "0.1.0"
