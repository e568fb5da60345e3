"""Lowest-order H(div div) parallelogram elements for Kirchhoff-Love plates."""

from .polys import QuadRule, gauss_rule
from .reference import (
    build_reference_basis,
    verify_unisolvency,
    dof_matrix,
    divdiv_matrix,
)
from .mesh import (
    Mesh,
    MeshError,
    make_parallelogram_domain,
    make_lshape,
    refine_uniform,
    import_text,
)
from .piola import GeometryError, BasisCache
from .space import DofMap, build_dof_map, cell_coefficients, check_conformity
from .interpolation import (
    TensorField,
    interpolate_ddiv,
    project_p1,
    commuting_residual,
    tensor_errors,
    interpolation_error_study,
)
from .system import MaterialLaw, DirichletData, NeumannData, build_system, solve_problem
from .problems import (
    exact_example1,
    exact_example2,
    corner_exponent,
    get_example,
    solve_example,
    convergence_study,
    ConvergenceReport,
)
from .linsolve import solve_saddle, SingularSystemError, ResidualError

__version__ = "0.1.0"
