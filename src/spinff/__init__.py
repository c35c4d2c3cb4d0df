"""Fast-forward counter-diabatic driving for small spin systems."""

from .ansatz import COEFF_NAMES, AnsatzCoefficients, ansatz_matrix
from .cdsolver import (
    CoefficientPath,
    ReducedSystem,
    SelectionResult,
    SolverTolerances,
    admissible_selections,
    drb_counterdiabatic,
    enumerate_grid,
    enumerate_solutions,
    enumeration_grid,
    fast_forward_hamiltonian,
    reduce_system,
    solve_dense,
    solve_lz,
    solve_selection,
)
from .config import RunConfig, load_config, load_preset
from .models import (
    ModelSpec,
    analytic_eigenvalues,
    eigensystem,
    hamiltonian,
    state_and_derivative,
)
from .propagator import Trajectory, evolve, ff_state, ff_state_residual
from .schedule import Schedule, advanced_parameter, velocity
from .tables import verify_table

__version__ = "0.1.0"
