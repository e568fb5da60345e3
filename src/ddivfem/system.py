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
import scipy.sparse as sp

from .piola import BasisCache, batch_geometry, edge_frames, normals
from .reference import divdiv_matrix
from .interpolation import FROBENIUS, P1_MASS_DIAG, _edge_rule, _push, p1_moments
from .interpolation import field_cell_jump, field_edge_dofs
from .linsolve import solve_saddle
from .space import cell_coefficients, check_conformity

#: volume rule order for the compliance block; its integrands are rational
#: only through the constant 1/det factor, polynomial of degree six otherwise
VOLUME_QUAD_POINTS = 4

#: rule order for right hand side and boundary data integrals
DATA_QUAD_POINTS = 6


class MaterialError(ValueError):
    """Raised for material parameters without a positive definite law."""


class MaterialLaw:
    """Bending stiffness C with its inverse (compliance) action.

    ``identity`` uses M = grad grad u.  ``isotropic`` uses the scaled law
    C K = E [(1 - nu) K + nu tr(K) I] which requires -1 < nu < 0.5.
    """

    def __init__(self, kind="identity", E=1.0, nu=0.0):
        self.kind = kind
        self.E = float(E)
        self.nu = float(nu)
        if kind == "identity":
            self.E, self.nu = 1.0, 0.0
        elif kind == "isotropic":
            if not (-1.0 < self.nu < 0.5) or self.E <= 0.0:
                raise MaterialError(
                    "isotropic law needs E > 0 and -1 < nu < 0.5, got E=%g nu=%g"
                    % (self.E, self.nu)
                )
        else:
            raise MaterialError("unknown material kind %r" % kind)
        if np.linalg.eigvalsh(self.compliance_gram()).min() <= 0.0:
            raise MaterialError("compliance is not positive definite")

    def apply_compliance(self, mxx, mxy, myy):
        """Componentwise C^-1 M for arrays of tensor components."""
        if self.kind == "identity":
            return mxx, mxy, myy
        trm = mxx + myy
        c = self.nu / (1.0 + self.nu)
        fac = 1.0 / (self.E * (1.0 - self.nu))
        return fac * (mxx - c * trm), fac * mxy, fac * (myy - c * trm)

    def compliance_gram(self):
        """Matrix of the quadratic form M -> C^-1 M : M in (Mxx, Myy, Mxy)."""
        basis = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)]
        G = np.zeros((3, 3))
        for a, (axx, axy, ayy) in enumerate(basis):
            cxx, cxy, cyy = self.apply_compliance(axx, axy, ayy)
            for b, (bxx, bxy, byy) in enumerate(basis):
                G[a, b] = cxx * bxx + 2.0 * cxy * bxy + cyy * byy
        return G


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
    """Assembled blocks of the mixed system.

    Attributes
    ----------
    A : csr_matrix, (nm, nm)
        Compliance block on the free tensor dofs.
    B : csr_matrix, (nu, nm)
        Rows are the elementwise linear test functions.
    L : csr_matrix or None, (nc, nm)
        Essential constraint rows.
    G, F, d : ndarrays
        Boundary functional, source functional, constraint values.
    """

    def __init__(self, A, B, L, G, F, d, ndofs, nu):
        self.A, self.B, self.L = A, B, L
        self.G, self.F, self.d = G, F, d
        self.ndofs, self.nu = ndofs, nu

    def full(self):
        """Symmetric indefinite block matrix and right hand side."""
        blocks = [
            [self.A, -self.B.T, None],
            [-self.B, None, None],
            [None, None, None],
        ]
        rhs = [self.G, -self.F]
        if self.L is not None and self.L.shape[0] > 0:
            blocks[0][2] = self.L.T
            blocks[2][0] = self.L
            rhs.append(self.d)
            K = sp.bmat(blocks, format="csc")
        else:
            K = sp.bmat([[blocks[0][0], blocks[0][1]], [blocks[1][0], None]], format="csc")
        return K, np.concatenate(rhs)


def assemble(mesh, dofmap, material=None, cache=None, nq=VOLUME_QUAD_POINTS):
    """Assemble the compliance block A and the div-div block B.

    The compliance block is integrated on the reference square (degree six
    polynomials, so a 4x4 Gauss rule is exact); the div-div block needs no
    quadrature at all since div div maps the reference shape functions into
    linears, whose mass against {1, xh, yh} is known in closed form, and the
    determinant factors cancel under the pushforward.
    """
    if material is None:
        material = MaterialLaw()
    if cache is None:
        cache = BasisCache()

    tab = cache.volume_tabulation(nq)
    phi, w = tab.phi, tab.rule.weights

    # dd[i, a]: coefficient of div div phi_i on {1, xh, yh}; exact
    dd = divdiv_matrix(cache.basis)
    Bref = dd * P1_MASS_DIAG[None, :]  # (20, 3); <divdiv phi_i, p_a> on the square

    # one compliance block per group of equal cells; the 1/det of both pushed
    # factors and the det of the volume element combine to a single 1/det
    first, group, Tinv = cache.groups(mesh)
    geometry = batch_geometry(mesh)
    det = geometry.det[first]
    push = _push(geometry.B[first], np.broadcast_to(phi, (len(first),) + phi.shape))
    comp = np.stack(material.apply_compliance(push[..., 0], push[..., 1], push[..., 2]), axis=-1)
    Ahat = np.einsum("gipc,gjpc,p,c->gij", comp, push, w, FROBENIUS) / det[:, None, None]
    A_loc = Tinv.transpose(0, 2, 1) @ Ahat @ Tinv
    B_loc = Bref.T @ Tinv  # (ngroups, 3, 20); Bref is map independent

    # A = P^T blockdiag(A_k) P and B = blockdiag(B_k) P; structural zeros of
    # the local blocks are dropped so that they do not reach the factorization
    nk = mesh.num_cells
    ptr = np.arange(nk + 1)
    A_cells = sp.bsr_matrix((A_loc[group], ptr[:-1], ptr), shape=(20 * nk, 20 * nk))
    B_cells = sp.bsr_matrix((B_loc[group], ptr[:-1], ptr), shape=(3 * nk, 20 * nk))
    A = (dofmap.P.T @ A_cells @ dofmap.P).tocsr()
    Bmat = (B_cells @ dofmap.P).tocsr()
    A.eliminate_zeros()
    Bmat.eliminate_zeros()
    return A, Bmat


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
    """Boundary vertices all of whose incident boundary edges are Neumann."""
    incident = {}
    for e in mesh.boundary_edges:
        for v in mesh.edges[e]:
            incident.setdefault(int(v), []).append(mesh.edge_label[e])
    return [v for v, labs in sorted(incident.items()) if all(l == "N" for l in labs)]


def neumann_constraints(mesh, dofmap, data, nq=DATA_QUAD_POINTS):
    """Essential constraint rows for moment/shear boundary data.

    One row per edge moment dof of every Neumann edge, pinned to the data
    functionals; one row per (cell, corner) jump dof at every vertex
    interior to the Neumann part, pinned to the jump of the data tensor as
    seen from that cell.  Returns (L, d) with L sparse of shape (nc, ndofs).
    """
    edges = mesh.neumann_edges()
    patches = [kc for v in neumann_interior_vertices(mesh) for kc in mesh.vertex_cells[v]]
    k, c = np.array(patches, dtype=int).reshape(-1, 2).T
    gids = dofmap.jump_id[k, c]
    if np.any(gids < 0):
        v = mesh.cells[k, c][np.argmax(gids < 0)]
        raise AssertionError("eliminated jump dof at boundary vertex %d" % v)
    edge_vals = np.stack(field_edge_dofs(mesh, edges, data.field, nq=nq), axis=-1)
    rows = np.concatenate([(4 * edges[:, None] + np.arange(4)).ravel(), gids])
    vals = np.concatenate([edge_vals.ravel(), field_cell_jump(mesh, k, c, data.field)])
    nc = len(rows)
    L = sp.csr_matrix((np.ones(nc), (np.arange(nc), rows)), shape=(nc, dofmap.ndofs))
    return L, vals


def build_system(mesh, dofmap, f, material=None, dirichlet=None, neumann=None,
                 cache=None, nq_data=DATA_QUAD_POINTS):
    """Assemble the complete saddle system for a load and boundary data."""
    if cache is None:
        cache = BasisCache()
    A, B = assemble(mesh, dofmap, material=material, cache=cache)
    F = source_load(mesh, f, nq=nq_data)
    if dirichlet is None:
        dirichlet = DirichletData.zero()
    G = dirichlet_load(mesh, dofmap, dirichlet, nq=nq_data)
    if neumann is not None and len(mesh.neumann_edges()) > 0:
        L, d = neumann_constraints(mesh, dofmap, neumann, nq=nq_data)
    else:
        L, d = None, np.zeros(0)
    return SaddleSystem(A, B, L, G, F, d, dofmap.ndofs, 3 * mesh.num_cells)


def solve_problem(mesh, dofmap, system, cache=None, rtol=1e-10):
    """Direct solve of an assembled system.

    Returns a dict with the tensor coefficients ``m``, the per-cell
    deflection coefficients ``u`` (shape (ncells, 3)), the multipliers,
    solver diagnostics, and a conformity report of the tensor part.
    """
    K, rhs = system.full()
    x, info = solve_saddle(K, rhs, rtol=rtol)
    m = x[: system.ndofs]
    u = x[system.ndofs : system.ndofs + system.nu].reshape(-1, 3)
    lam = x[system.ndofs + system.nu :]
    if cache is None:
        cache = BasisCache()
    coeffs = cell_coefficients(mesh, dofmap, cache, m)
    conf = check_conformity(mesh, dofmap, coeffs, cache=cache)
    return {
        "m": m,
        "u": u,
        "lambda": lam,
        "solver": info,
        "conformity": conf,
        "ddiv_residual": float(np.linalg.norm(system.B @ m - system.F, np.inf)),
    }
