"""Numerical laboratory for conical geometric flow on elliptic-fibration bases.

Builds synthetic base geometries on the flat torus, solves the limiting
conical equation by Newton continuation, evolves the base-reduced flow,
and verifies the convergence statements and a priori estimates at desk
scale.  See the README for the module map and the CLI surface.
"""

from .errors import (ConeflowError, ConfigurationError, DivergenceError,
                     ModelError, NumericalError, PositivityError)
from .torus_field import Grid, ScalarField, make_grid
from .elliptic_periods import (ConstantTau, LocalLogTau, TauModel,
                               WeierstrassCurve, WeierstrassFamilyTau,
                               discriminant, periods_from_weierstrass,
                               tau_field)
from .cone_smoothing import chi, chi_values
from .fibration_model import (BackgroundGeometry, DensityData, FibrationModel,
                              SingularFiber, assemble_density,
                              build_background, product_model, required_area,
                              validate_lp)
from .ke_solver import (KEProblem, KESolution, build_problem,
                        continuation_solve, default_extrapolation_schedule,
                        extrapolated_solution, holder_exponent_estimate,
                        ke_residual, newton_solve)
from .flow_engine import (FlowOps, FlowState, ProductFlow4D, Trajectory,
                          flow_step, run_flow)
from .estimates import (BarrierSigma, EstimateReport, cone_angle,
                        multiplicity_exponent, ricci_residual, sigma_barrier,
                        trace_field, verify_c0_convergence, verify_trace_bound)
from .verify import run_verification_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
