import time

import numpy as np
import pytest

from cellspec import cell_dof_matrix
from ddivfem.mesh import EX1_CORNERS, Mesh
from ddivfem.piola import BasisCache
from ddivfem.problems import convergence_study


@pytest.fixture(scope="session")
def basis_cache():
    return BasisCache()


@pytest.fixture(scope="session")
def cell_basis():
    """``cell_basis(cache, mesh, k)``: ``(T, Tinv)`` of cell k.

    ``Tinv`` is the inverse dof matrix that ``cache.groups`` gives the group
    of cell k; ``T`` is the dof matrix of the one-cell functionals of
    :func:`cellspec.cell_dof_matrix`.
    """

    def lookup(cache, mesh, k):
        _, group, Tinv = cache.groups(mesh)
        return cell_dof_matrix(mesh, k, cache.basis), Tinv[group[k]]

    return lookup


@pytest.fixture(scope="session")
def graded_mesh():
    """Tensor-product mesh of the ex1 parallelogram with unequal knot gaps.

    Every cell is a parallelogram, but no two columns or rows share a width,
    so no two cells have the same element map.
    """
    s_knots = np.array([0.0, 0.12, 0.3, 0.52, 0.8, 1.0])
    t_knots = np.array([0.0, 0.31, 0.48, 0.71, 1.0])
    c0, c1, c3 = EX1_CORNERS[0], EX1_CORNERS[1], EX1_CORNERS[3]
    ss, tt = np.meshgrid(s_knots, t_knots, indexing="ij")
    vertices = c0 + np.outer(ss.ravel(), c1 - c0) + np.outer(tt.ravel(), c3 - c0)
    nt = len(t_knots)
    cells = []
    for i in range(len(s_knots) - 1):
        for j in range(nt - 1):
            v00, v10 = i * nt + j, (i + 1) * nt + j
            cells.append([v00, v10, v10 + 1, v00 + 1])
    return Mesh(vertices, np.array(cells))


@pytest.fixture(scope="session")
def hexagon_mesh():
    """Three rhombi around the origin, with the six corners on the unit circle.

    The origin is an interior vertex of three cells, where every other
    mesh of the tests has four or none.
    """
    s = np.sqrt(3.0) / 2.0
    ring = [(1.0, 0.0), (0.5, s), (-0.5, s), (-1.0, 0.0), (-0.5, -s), (0.5, -s)]
    vertices = np.array([(0.0, 0.0)] + ring)
    return Mesh(vertices, np.array([[0, 1, 2, 3], [0, 3, 4, 5], [0, 5, 6, 1]]))


@pytest.fixture(scope="session")
def ex1_report():
    """Full clamped-parallelogram study, levels 1-5, shared across tests."""
    t0 = time.perf_counter()
    report = convergence_study("ex1", levels=5, start=1)
    report.extras["runtime"] = time.perf_counter() - t0
    return report


@pytest.fixture(scope="session")
def ex2_report():
    """Full L-shape study, levels 1-5, shared across tests."""
    t0 = time.perf_counter()
    report = convergence_study("ex2", levels=5, start=1)
    report.extras["runtime"] = time.perf_counter() - t0
    return report
