"""Numerical laboratory for degenerate Pucci extremal operators."""

__version__ = "0.1.0"

from .errors import (BracketFailure, DegenerateGradient, IntegrationFailure,
                     InvalidMatrix, InvalidNeumannData, InvalidShape,
                     IterationLimit, NoZeroCrossing, OutOfDomain,
                     PositivityLoss, PucciLabError, ReflectionOutOfDomain,
                     SignBranchFailure)
from .operators import (EigenDecomp, PucciParams, SymMatrix, Variant,
                        boundary_hessian, eigen_sym, f_operator, pucci)
from .radial import (Constant, EigenPower, PowerPair, RadialProfile, Source,
                     closed_form_constant, neumann_constant,
                     overdetermined_radius, principal_eigenvalue_ball, shoot)
from . import grid
from . import sector
from .grid import (Disk, Ellipse, GridDomain, GridField, Polygon,
                   boundary_data, broken_weights, build_domain,
                   comparison_check, critical_plane_position, discretize_F,
                   export_field_csv, neumann_trace, principal_eigenvalue_grid,
                   reflection_gap, small_domain_check, solve_dirichlet)

__all__ = [
    "grid", "sector",
    "Disk", "Ellipse", "GridDomain", "GridField", "Polygon",
    "boundary_data", "broken_weights", "build_domain", "comparison_check",
    "critical_plane_position", "discretize_F", "export_field_csv",
    "neumann_trace", "principal_eigenvalue_grid", "reflection_gap",
    "small_domain_check", "solve_dirichlet",
    "BracketFailure", "DegenerateGradient", "IntegrationFailure",
    "InvalidMatrix", "InvalidNeumannData", "InvalidShape", "IterationLimit",
    "NoZeroCrossing", "OutOfDomain", "PositivityLoss", "PucciLabError",
    "ReflectionOutOfDomain", "SignBranchFailure",
    "EigenDecomp", "PucciParams", "SymMatrix", "Variant", "boundary_hessian",
    "eigen_sym", "f_operator", "pucci",
    "Constant", "EigenPower", "PowerPair", "RadialProfile", "Source",
    "closed_form_constant", "neumann_constant", "overdetermined_radius",
    "principal_eigenvalue_ball", "shoot",
    "__version__",
]
