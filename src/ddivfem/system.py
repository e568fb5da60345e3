"""Assembly and solution of the mixed plate bending system.

The discrete problem seeks a tensor field M_h in the conforming space and an
elementwise linear deflection u_h such that

    (C^-1 M_h, dM)   - (u_h, div div dM) = -<boundary data, dM>
    (div div M_h, du)                    = (f, du)

for all test fields dM and all elementwise linear du.  Clamped boundary data
(deflection and normal slope) is natural here and enters the right hand
side; moment and shear data is essential and is enforced by Lagrange
multiplier rows pinning the corresponding degrees of freedom.
"""

import numpy as np

from .piola import BasisCache, GeometryError, edge_frames, element_maps, normals
from .reference import divdiv_matrix
from .interpolation import FROBENIUS, P1_MASS_DIAG, _edge_rule, _push_matrix, p1_moments
from .interpolation import field_cell_jump, field_edge_dofs
from .linsolve import solve_saddle
from .space import Csr, _conformity, _expand

#: volume rule order for the compliance block; its integrands are rational
#: only through the constant 1/det factor, polynomial of degree six otherwise
VOLUME_QUAD_POINTS = 4

#: rule order for right hand side and boundary data integrals
DATA_QUAD_POINTS = 6


class MaterialError(ValueError):
    """Raised for material parameters without a positive definite law."""


class MaterialLaw:
    """The isotropic bending law C K = E [(1 - nu) K + nu tr(K) I] with its
    inverse (compliance) action; E and nu are keyword-only.

    The defaults E = 1, nu = 0 give the identity law M = grad grad u.  The
    law needs 0 < E < inf and -1 < nu < 0.5.  C^-1 scales trace-free
    tensors by dev = 1 / (E (1 - nu)) and multiples of I by
    vol = 1 / (E (1 + nu)); :class:`MaterialError` is raised unless both
    are finite and positive and vol / dev, the condition of C^-1 for
    nu < 0, stays below 1 / eps, so that the law is still positive definite
    in double precision.
    """

    def __init__(self, *, E=1.0, nu=0.0):
        self.E = float(E)
        self.nu = float(nu)
        # written so that NaN fails too; the Frobenius form doubles dev on
        # the shear component
        with np.errstate(divide="ignore", over="ignore"):
            dev, vol = np.divide(1.0, [self.E * (1.0 - self.nu), self.E * (1.0 + self.nu)])
            ok = (
                0.0 < self.E < np.inf
                and -1.0 < self.nu < 0.5
                and 0.0 < vol
                and vol * np.finfo(float).eps < dev
                and 2.0 * dev < np.inf
            )
        if not ok:
            raise MaterialError(
                "isotropic law needs 0 < E < inf, -1 < nu < 0.5 and a finite, "
                "resolvable compliance, got E=%r nu=%r" % (self.E, self.nu)
            )

    def apply_compliance(self, mxx, mxy, myy):
        """Componentwise C^-1 M for arrays of tensor components."""
        trm = mxx + myy
        c = self.nu / (1.0 + self.nu)
        fac = 1.0 / (self.E * (1.0 - self.nu))
        return fac * (mxx - c * trm), fac * mxy, fac * (myy - c * trm)


class DirichletData:
    """Clamped boundary data: deflection g and its gradient."""

    def __init__(self, g, grad_g):
        self.g = g
        self.grad_g = grad_g

    @staticmethod
    def zero():
        return DirichletData(
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x, y: np.zeros(np.shape(x) + (2,)),
        )


class NeumannData:
    """Moment/shear boundary data read off an exact tensor field."""

    def __init__(self, field):
        self.field = field


class SaddleSystem:
    """The assembled plate: cell blocks, global B and the right hand side.

    This record is what :func:`ddivfem.linsolve.solve_saddle` solves and
    what :func:`solve_problem` expands the solution with, so the cells are
    grouped once per solve, by :func:`assemble`.

    Attributes
    ----------
    dofmap : ddivfem.space.DofMap
        The dof map, with its local-to-global operator ``dofmap.P``.
    first, group, Tinv : ndarrays
        The cell groups of :meth:`ddivfem.piola.BasisCache.groups`: the
        first cell of each group, the group of every cell and the inverse
        dof matrix (20, 20) of each group.
    edge_tabulation : ddivfem.piola.EdgeTabulation
        Of the basis those inverses came from; :func:`solve_problem` reads it.
    A_loc, B_loc : ndarrays, (ngroups, 20, 20) and (ngroups, 3, 20)
        Local blocks of each group: the compliance block
        A = P^T blockdiag(A_loc[group]) P on the free tensor dofs, which is
        not formed, and B = blockdiag(B_loc[group]) P.
    B : ddivfem.space.Csr, (nu, nm)
        Rows are the elementwise linear test functions.
    L : ddivfem.space.Csr, (nc, nm)
        Essential constraint rows; nc = 0 without moment/shear data.  An
        ``L`` of None is taken as that empty matrix.
    G, F, d : ndarrays
        Boundary functional, source functional, constraint values.
    ndofs, nu : int
        Numbers of tensor and deflection unknowns.
    """

    def __init__(self, cells, B, L, G, F, d, ndofs, nu):
        if L is None:
            L = _empty_rows(ndofs)
        (self.dofmap, self.first, self.group, self.Tinv, self.edge_tabulation,
         self.A_loc, self.B_loc) = cells
        self.B, self.L = B, L
        self.G, self.F, self.d = G, F, d
        self.ndofs, self.nu = ndofs, nu

    def rhs(self):
        """Right hand side in the order (m, u, lambda) of the unknowns."""
        return np.concatenate([self.G, -self.F, self.d])

    def full(self):
        """Symmetric indefinite block matrix K and right hand side.

        K = [[A, -B^T, L^T], [-B, 0, 0], [L, 0, 0]] is formed here and
        nowhere on the solve path; it serves as an oracle, and it is the
        library's one use of scipy, which is imported here.  The returned
        scipy csc matrix carries this system as ``K.plate``, which
        :func:`ddivfem.linsolve.solve_saddle` reads in place of K.
        """
        import scipy.sparse as sp

        P, B, L = (sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)
                   for M in (self.dofmap.P, self.B, self.L))
        nk = len(self.group)
        ptr = np.arange(nk + 1)
        A_cells = sp.bsr_matrix((self.A_loc[self.group], ptr[:-1], ptr), shape=(20 * nk, 20 * nk))
        A = (P.T @ A_cells @ P).tocsr()
        # structural zeros of the local blocks are dropped
        A.eliminate_zeros()
        K = sp.bmat([[A, -B.T, L.T], [-B, None, None], [L, None, None]], format="csc")
        K.plate = self
        return K, self.rhs()


def assemble(mesh, dofmap, material=None, cache=None):
    """Cell blocks of the compliance block A and the global div-div block B.

    The element maps are affine, so the compliance block of a group is the
    reference moments Phi[a, b, i, j] = sum_p w_p phi_i^a(p) phi_j^b(p) of
    the components of the reference shape functions, integrated once per
    call by a 4x4 Gauss rule (degree six polynomials, so it is exact),
    contracted with one 3x3 factor G = R^T (C^-1 diag(1, 2, 1)) R and
    divided by det B; R = R(B) pushes the components (xx, xy, yy), one per
    group, and C^-1 is read off ``material.apply_compliance`` of the unit
    components.  The div-div block needs no quadrature at all since div div
    maps the reference shape functions into linears, whose mass against
    {1, xh, yh} is known in closed form, and the determinant factors cancel
    under the pushforward.

    Returns ``(cells, B)`` with ``cells = (dofmap, first, group, Tinv,
    edge_tabulation, A_loc, B_loc)``: the dof map itself, the cell groups of
    :meth:`ddivfem.piola.BasisCache.groups`, the edge tabulation of the
    cache's basis and the local blocks of each group, so that
    A = P^T blockdiag(A_loc[group]) P and B = blockdiag(B_loc[group]) P for
    P = ``dofmap.P``.  The global A is not formed; :meth:`SaddleSystem.full`
    forms it for the assembled K.  A compliance block that overflows raises
    :class:`ddivfem.piola.GeometryError` naming the first cell of its group.
    """
    if material is None:
        material = MaterialLaw()
    if cache is None:
        cache = BasisCache()

    tab = cache.volume_tabulation(VOLUME_QUAD_POINTS)
    phi, w = tab.phi, tab.rule.weights

    # dd[i, a]: coefficient of div div phi_i on {1, xh, yh}; exact
    dd = divdiv_matrix(cache.basis)
    Bref = dd * P1_MASS_DIAG[None, :]  # (20, 3); <divdiv phi_i, p_a> on the square

    # Phi[a, b, i, j] as (9, 400); the 1/det of both pushed factors and the
    # det of the volume element combine to a single 1/det
    moments = np.einsum("p,ipa,jpb->abij", w, phi, phi).reshape(9, -1)
    # C^-1 on the components: column d is the compliance of unit component d
    comp = np.stack(material.apply_compliance(*np.eye(3)))
    first, group, Tinv = cache.groups(mesh)
    B, _, det = element_maps(mesh, first)
    ng = len(first)
    with np.errstate(over="ignore", invalid="ignore"):
        R = _push_matrix(B)
        G = R.transpose(0, 2, 1) @ (comp.T * FROBENIUS) @ R
        Ahat = (G.reshape(ng, 9) @ moments).reshape(ng, 20, 20) / det[:, None, None]
        A_loc = Tinv.transpose(0, 2, 1) @ Ahat @ Tinv
    if not np.isfinite(A_loc).all():
        bad = first[np.argmax(~np.isfinite(A_loc).all(axis=(1, 2)))]
        raise GeometryError("compliance block of cell %d is not finite" % bad)
    B_loc = Bref.T @ Tinv  # (ngroups, 3, 20); Bref is map independent

    # B = blockdiag(B_k) P: no two slots of a cell share a global dof, so each
    # entry is one product B_k[a, s] P[20 k + s, d]; structural zeros of the
    # local blocks are dropped
    P = dofmap.P
    k, s = np.divmod(P.rows, 20)
    vals = B_loc[group[k], :, s] * P.data[:, None]
    rows = 3 * k[:, None] + np.arange(3)
    cols = np.broadcast_to(P.indices[:, None], vals.shape)
    keep = vals != 0.0
    Bmat = Csr.from_entries(rows[keep], cols[keep], vals[keep], (3 * mesh.num_cells, P.shape[1]))
    return (dofmap, first, group, Tinv, cache.edge_tabulation(), A_loc, B_loc), Bmat


def source_load(mesh, f, nq=DATA_QUAD_POINTS):
    """Vector of (f, p_a) over all cells in the pulled-back {1, xh, yh} basis."""
    moments, det = p1_moments(mesh, f, nq)
    return (moments * det[:, None]).ravel()


def dirichlet_load(mesh, dofmap, data, nq=DATA_QUAD_POINTS):
    """Boundary functional of clamped data on the free tensor dofs.

    The test space traces reduce to the edge moment basis, so the functional
    has closed form in the data moments: with G0, G1 the integrals of g
    against 1 and the edge Legendre weight, and H0, H1 those of the outward
    normal slope of g,

        load[m0] += H0,      load[m1] += 3 H1,
        load[q0] -= s G0/|e|, load[q1] -= 3 s G1/|e|,

    where s is +1 when the global edge normal points outward, which is when
    the adjacent cell runs the edge forward, from its lower to its higher
    vertex (``mesh.cell_edge_forward``).  Each corner jump dof of a cell at
    a Dirichlet boundary vertex receives g(vertex).
    """
    load = np.zeros(dofmap.ndofs)
    e = mesh.dirichlet_edges()
    k = mesh.edge_cells[e, 0]
    j = np.argmax(mesh.cell_edges[k] == e[:, None], axis=1)
    sigma = np.where(mesh.cell_edge_forward[k, j], 1.0, -1.0)
    t, ln = edge_frames(mesh, e)
    n_out = sigma[:, None, None] * normals(t)[:, None, :]

    s, w, pts = _edge_rule(mesh, e, nq)
    gv = data.g(pts[..., 0], pts[..., 1])
    gr = data.grad_g(pts[..., 0], pts[..., 1])
    dng = n_out[..., 0] * gr[..., 0] + n_out[..., 1] * gr[..., 1]
    half = 0.5 * ln
    G0, G1 = (gv @ w) * half, (gv @ (w * s)) * half
    H0, H1 = (dng @ w) * half, (dng @ (w * s)) * half
    edge_load = load[: 4 * mesh.num_edges].reshape(-1, 4)
    edge_load[e] = np.stack([H0, 3.0 * H1, -sigma * G0 / ln, -sigma * 3.0 * G1 / ln], axis=-1)

    # the kept jump dofs of the cells at vertices touching the clamped part
    clamped = np.zeros(mesh.num_vertices, dtype=bool)
    clamped[mesh.edges[e]] = True
    k, c = np.nonzero(clamped[mesh.cells] & (dofmap.jump_id >= 0))
    v = mesh.vertices[mesh.cells[k, c]]
    load[dofmap.jump_id[k, c]] = data.g(v[:, 0], v[:, 1])
    return load


def neumann_interior_vertices(mesh):
    """Boundary vertices all of whose incident boundary edges are Neumann, ascending."""
    inside = np.zeros(mesh.num_vertices, dtype=bool)
    inside[mesh.edges[mesh.neumann_edges()]] = True
    inside[mesh.edges[mesh.dirichlet_edges()]] = False
    return np.nonzero(inside)[0]


def neumann_constraints(mesh, dofmap, data, nq=DATA_QUAD_POINTS):
    """Essential constraint rows for moment/shear boundary data.

    One row per edge moment dof of every Neumann edge, pinned to the data
    functionals; one row per (cell, corner) jump dof at every vertex
    interior to the Neumann part, pinned to the jump of the data tensor as
    seen from that cell.  Returns (L, d) with L a :class:`ddivfem.space.Csr`
    of shape (nc, ndofs), one 1 per row.
    """
    edges = mesh.neumann_edges()
    # the (cell, corner) pairs at those vertices, vertex by vertex and in
    # cell order at each vertex
    k, c = np.nonzero(np.isin(mesh.cells, neumann_interior_vertices(mesh)))
    order = np.argsort(mesh.cells[k, c], kind="stable")
    k, c = k[order], c[order]
    gids = dofmap.jump_id[k, c]
    if np.any(gids < 0):
        v = mesh.cells[k, c][np.argmax(gids < 0)]
        raise AssertionError("eliminated jump dof at boundary vertex %d" % v)
    edge_vals = np.stack(field_edge_dofs(mesh, edges, data.field, nq=nq), axis=-1)
    rows = np.concatenate([(4 * edges[:, None] + np.arange(4)).ravel(), gids])
    vals = np.concatenate([edge_vals.ravel(), field_cell_jump(mesh, k, c, data.field)])
    nc = len(rows)
    return Csr(np.arange(nc + 1), rows, np.ones(nc), (nc, dofmap.ndofs)), vals


def build_system(mesh, dofmap, f, material=None, dirichlet=None, neumann=None, cache=None):
    """Assemble the complete saddle system for a load and boundary data."""
    cells, B = assemble(mesh, dofmap, material=material, cache=cache)
    F = source_load(mesh, f)
    if dirichlet is None:
        dirichlet = DirichletData.zero()
    G = dirichlet_load(mesh, dofmap, dirichlet)
    if neumann is not None and len(mesh.neumann_edges()) > 0:
        L, d = neumann_constraints(mesh, dofmap, neumann)
    else:
        L, d = _empty_rows(dofmap.ndofs), np.zeros(0)
    return SaddleSystem(cells, B, L, G, F, d, dofmap.ndofs, 3 * mesh.num_cells)


def _empty_rows(ncols):
    """The (0, ncols) constraint matrix of a plate without moment/shear data."""
    return Csr(np.zeros(1, dtype=int), np.zeros(0, dtype=int), np.zeros(0), (0, ncols))


def solve_problem(mesh, dofmap, system, rtol=1e-10):
    """Direct solve of an assembled system.

    Returns a dict with the tensor coefficients ``m``, their per-cell
    reference expansion ``coeffs`` (shape (ncells, 20)), the per-cell
    deflection coefficients ``u`` (shape (ncells, 3)), the multipliers,
    solver diagnostics, and a conformity report of the tensor part.  The
    coefficients and the report read the cell groups and the basis that the
    system was assembled with, so the cells are grouped once; they are bit
    for bit those of :func:`ddivfem.space.cell_coefficients` and
    :func:`ddivfem.space.check_conformity`.
    """
    x, info = solve_saddle(system, system.rhs(), rtol=rtol)
    m = x[: system.ndofs]
    u = x[system.ndofs : system.ndofs + system.nu].reshape(-1, 3)
    lam = x[system.ndofs + system.nu :]
    local = (dofmap.P @ m).reshape(-1, 20)
    coeffs = _expand(system.group, system.Tinv, local)
    # B m = blockdiag(B_loc[group]) P m, from the local vectors
    ddiv = np.einsum("kas,ks->ka", system.B_loc[system.group], local).ravel() - system.F
    conf = _conformity(mesh, dofmap, system.first, system.group, coeffs, system.edge_tabulation)
    return {
        "m": m,
        "coeffs": coeffs,
        "u": u,
        "lambda": lam,
        "solver": info,
        "conformity": conf,
        "ddiv_residual": float(np.linalg.norm(ddiv, np.inf)),
    }
