"""spinpointer: direction estimation of N parallel spins through a
three-axis Gaussian pointer, with the measurement's information-disturbance
trade-off evaluated by deterministic quadrature."""

from .asymptotics import (
    LowerBoundPoint,
    delta_opt_formula,
    diag_radial_profile,
    epsilon_curve,
    fidelity_lower_bound,
    optimal_scaling,
)
from .disturbance import (
    BlochReport,
    DisturbancePoint,
    bloch_post_numeric,
    bloch_z_post_closed,
    disturbance_exact,
    disturbance_lowest_order,
    disturbance_oracle_full,
    disturbance_series_copt,
    min_disturbance,
)
from .errors import CapabilityError, ConvergenceError, DomainError, NumericError
from .estimation import (
    FidelityPoint,
    GuessRule,
    OptimizeResult,
    average_fidelity,
    find_delta_opt,
    optimal_fidelity,
    strong_coupling_limit,
)
from .pointer import (
    AmplitudeField,
    MomentumQuadrature,
    OutcomeGrid,
    PointerModel,
    QuadratureCounts,
    adaptive_outcome_grid,
    build_amplitude_field,
    build_outcome_grid,
    hemisphere_masses,
    momentum_profile,
    position_amplitudes,
)
from .quadrature import ConvergenceReport, Rule1D, gauss_legendre
from .spincore import (
    CollectiveOperators,
    DickeVector,
    Direction,
    coherent_dicke,
    collective_operators,
    dicke_expand,
    direction_from_angles,
    full_tensor_rotation_oracle,
    rotated_up_amplitudes,
    score,
    su2_rotation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
