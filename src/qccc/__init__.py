"""qccc: exact simulation and certification of measurement-assisted
(LOCC) constant-depth quantum circuits.

Dense qudit and stabilizer-tableau backends, branch-exhaustive determinism
certification, concrete preparation protocols (GHZ, W, renormalization fixed
points, toric code), matrix-product-state triviality machinery, and
executable no-go diagnostics.
"""

__version__ = "0.1.0"

from .lattice import Lattice, Region, boundary, distance
from .statevector import (
    CapacityError,
    PureState,
    QuditRegister,
    RegionOperator,
)
from .stabilizer import (
    CliffordMap,
    GraphState,
    InternalError,
    PauliString,
    StabilizerTableau,
    TableauState,
    to_graph_state,
)
from .circuits import (
    Circuit,
    Gate,
    GateLayer,
    LocalLayer,
    build_shift_circuit,
    estimate_range,
    operator_support,
    run,
    validate,
)
from .locc import (
    BranchReport,
    EnumerationResult,
    OutcomeRecord,
    Protocol,
    enumerate_branches,
    replay,
    run_sampled,
)
from .protocols import (
    RGFixedPointSpec,
    ToricCodeLayout,
    find_tc_correction,
    ghz_protocol,
    rg_fixed_point_protocol,
    toric_code_protocol,
    w_protocol,
)
from .mps import (
    MPS,
    BoundReport,
    bound_report,
    block,
    canonicalize,
    fidelity_deficit,
    is_normal,
    rg_fixed_point_tensor,
    state_from_mps,
    preparation_pipeline,
    transfer_matrix,
)
from .diagnostics import (
    CJProtocol,
    FactorizationReport,
    area_law_audit,
    build_cj_protocol,
    check_factorization,
    enumerate_cj_branches,
    ghz_unitary_cj,
    run_cj_unitary,
    verify_clifford_table,
)
