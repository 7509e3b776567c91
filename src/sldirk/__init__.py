"""Semi-Lagrangian DIRK integrators for stiff kinetic relaxation models."""

from .butcher import (ButcherTableau, ShuOsherForm, catalog, get_tableau,
                      load_tableau, resolve_tableau, to_shu_osher,
                      tableau_from_text, tableau_to_text)
from .dg import DGField, Mesh1D, fourier_coefficient, gauss_nodes
from .harness import ConvergenceStudy, build_case, fit_slope, run_convergence
from .models import (BGK1D, KineticModel, LinearTwoVelocity, NonlinearTwoVelocity,
                     SimulationError, UnphysicalStateError, VelocitySet, maxwellian)
from .order_analysis import (CONDITIONS, OrderReport, coefficients, order_report,
                             verify_identities)
from .sl_solver import (DivergenceError, RunResult, SemiLagrangianSolver,
                        SimConfig, l1_error, run)
from .stability import (XI_INF, AmplificationMatrix, StabilityPoint,
                        amplification, eigenvalues_2x2, equilibrium_projection,
                        relaxation_jacobian, scan, spectral_radius, stage_inverse)

__version__ = "0.1.0"
