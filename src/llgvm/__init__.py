"""Coupled magnetization / kinetic-transport / Maxwell simulator on a periodic box."""

from .config import RunConfig, parse_config, parse_config_text
from .coupler import EnergyLedger, SimState, advance, energy_audit, make_initial_state
from .emergent import EmergentFieldPair, compute_b, compute_e
from .errors import (
    BlowUpError,
    ConfigError,
    ContractViolation,
    DegenerateSliceError,
    LLGVMError,
    SnapshotError,
    StateCorruption,
    TimeStepError,
)
from .grid import (
    PeriodicGrid,
    ScalarField,
    VectorField3,
    biharmonic,
    curl,
    dealias,
    div,
    grad,
    hs_norm,
    l2_inner,
    l2_norm,
    laplacian,
)
from .kinetic import (
    BumpMaxwellian,
    DeltaSpec,
    MomentReport,
    ParticleEnsemble,
    TwoStream,
    UniformMaxwellian,
    deposit,
    deposit_moment,
    gather,
    lorentz_push,
    moment_exponent,
    moment_report,
    sample_initial,
)
from .magnetization import (
    LLCoefficients,
    MagnetizationField,
    apply_a,
    dt_max,
    effective_field,
    energy,
    ll_rhs,
    step,
)
from .maxwell import (
    EMFieldPair,
    EMMode,
    avg_B_to_nodes,
    avg_E_to_nodes,
    cfl_limit,
    em_energy,
    gauss_residual,
    init_compatible,
    step_fields,
)
from .smoothing import Mollifier, mollify
from .snapshots import Snapshot, read_snapshot, write_snapshot
from .textures import hopfion, make_texture, mirror_z, random_smooth_unit, skyrmion_tube
from .topology import (
    TopologyReport,
    helicity,
    hopf_invariant,
    skyrmion_number,
    topology_report,
    vector_potential,
)

__version__ = "0.1.0"
