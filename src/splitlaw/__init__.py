"""Split transport solvers for scalar conservation laws and the systems
they generate: Godunov for the scalar part, a matched upwind scheme for
the continuity part, and measurement tools for the theorems both satisfy.
"""
from ._kernels import BACKEND
from .core import (
    CellField,
    FluxFunction,
    Grid1D,
    Trajectory,
    burgers_flux,
    bump_test,
    chromatography_flux,
    lp_distance,
    mass,
    project,
    total_variation,
    weak_pairing,
)
from .errors import SolverError, SplitlawError, ValidationError
from .scalar import (
    RiemannFan,
    ScalarConfig,
    comparison_defect,
    entropy_residual,
    max_principle_defect,
    oleinik_excess,
    solve_scalar,
    tvd_defect,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CellField",
    "FluxFunction",
    "Grid1D",
    "RiemannFan",
    "ScalarConfig",
    "SolverError",
    "SplitlawError",
    "Trajectory",
    "ValidationError",
    "burgers_flux",
    "bump_test",
    "chromatography_flux",
    "comparison_defect",
    "entropy_residual",
    "lp_distance",
    "mass",
    "max_principle_defect",
    "oleinik_excess",
    "project",
    "solve_scalar",
    "total_variation",
    "tvd_defect",
    "weak_pairing",
    "__version__",
]
