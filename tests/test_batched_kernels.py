"""Batched cell kernels against per-cell and per-edge loop oracles.

Interpolation, cell coefficients, assembly, loads and the error integrals
run as array operations over all cells, edges and corners at once.  Each
test here writes out the one-cell (or one-edge) formula and loops over the
mesh, and requires the batched result to agree to rounding.
"""

import numpy as np
import pytest

from ddivfem.interpolation import (
    TensorField,
    commuting_residual,
    interpolate_ddiv,
    interpolation_error_study,
    project_p1,
    tensor_errors,
)
from ddivfem.mesh import (
    DIRICHLET,
    EX1_CORNERS,
    NEUMANN,
    Mesh,
    make_lshape,
    make_parallelogram_domain,
)
from ddivfem.piola import (
    BasisCache,
    PhysicalDofFrame,
    cell_geometry,
    element_map,
    push_components,
    push_divergence,
)
from ddivfem.polys import gauss_rule
from ddivfem.problems import ddiv_norm, get_example, l2_errors, quadrature_orders, solve_example
from ddivfem.reference import divdiv_matrix
from ddivfem.space import build_dof_map, cell_coefficients
from ddivfem.system import (
    DirichletData,
    MaterialLaw,
    assemble,
    build_system,
    dirichlet_load,
    neumann_constraints,
    neumann_interior_vertices,
    source_load,
)


def rel_gap(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want).max() / np.abs(want).max()


def tensor_mesh(s_knots, t_knots):
    """Tensor-product mesh of the ex1 parallelogram through the given knots."""
    c0, c1, c3 = (np.asarray(EX1_CORNERS[i], dtype=float) for i in (0, 1, 3))
    ss, tt = np.meshgrid(s_knots, t_knots, indexing="ij")
    vertices = c0 + np.outer(ss.ravel(), c1 - c0) + np.outer(tt.ravel(), c3 - c0)
    nt = len(t_knots)
    cells = [
        [i * nt + j, (i + 1) * nt + j, (i + 1) * nt + j + 1, i * nt + j + 1]
        for i in range(len(s_knots) - 1)
        for j in range(nt - 1)
    ]
    return Mesh(vertices, np.array(cells))


# -- scalar oracles ---------------------------------------------------------------


def edge_dofs_oracle(mesh, e, field, nq=6):
    """(m0, m1, q0, q1) of one edge, written out point by point."""
    a, b = mesh.edges[e]
    va, vb = mesh.vertices[a], mesh.vertices[b]
    vec = vb - va
    ln = np.linalg.norm(vec)
    t = vec / ln
    n = np.array([t[1], -t[0]])

    rule = gauss_rule(nq, dim=1)
    s, w = rule.points, rule.weights
    mid = 0.5 * (va + vb)
    x = mid[0] + 0.5 * s * vec[0]
    y = mid[1] + 0.5 * s * vec[1]
    mv = field.m(x, y)
    dv = field.div(x, y)
    nmn = n[0] * n[0] * mv[:, 0] + 2.0 * n[0] * n[1] * mv[:, 1] + n[1] * n[1] * mv[:, 2]
    tmn = (
        t[0] * n[0] * mv[:, 0]
        + (t[0] * n[1] + t[1] * n[0]) * mv[:, 1]
        + t[1] * n[1] * mv[:, 2]
    )
    ndiv = n[0] * dv[:, 0] + n[1] * dv[:, 1]

    def tmn_at(p):
        mv = field.m(p[0], p[1])
        return float(
            t[0] * n[0] * mv[0] + (t[0] * n[1] + t[1] * n[0]) * mv[1] + t[1] * n[1] * mv[2]
        )

    v_lo, v_hi = tmn_at(va), tmn_at(vb)
    half = 0.5 * ln
    m0 = np.sum(w * nmn) * half / ln
    m1 = np.sum(w * nmn * s) * half / ln
    q0 = np.sum(w * ndiv) * half + (v_hi - v_lo)
    q1 = np.sum(w * ndiv * s) * half + (v_hi + v_lo) - (2.0 / ln) * np.sum(w * tmn) * half
    return m0, m1, q0, q1


def corner_jump_oracle(mesh, k, c, field):
    """Jump of t.Mn at one corner, from the cell's global edge frames."""
    frame = PhysicalDofFrame(mesh, k)
    v = mesh.vertices[mesh.cells[k, c]]
    mv = field.m(v[0], v[1])
    A = np.array([[mv[0], mv[1]], [mv[1], mv[2]]])

    def local_tangent(j):
        return frame.tangents[j] if frame.forward[j] else -frame.tangents[j]

    t_in, t_out = local_tangent((c - 1) % 4), local_tangent(c)
    n_in = np.array([t_in[1], -t_in[0]])
    n_out = np.array([t_out[1], -t_out[0]])
    return float(t_in @ A @ n_in - t_out @ A @ n_out)


def interpolate_oracle(mesh, dofmap, field, nq=6):
    x = np.zeros(dofmap.ndofs)
    for e in range(mesh.num_edges):
        x[4 * e : 4 * e + 4] = edge_dofs_oracle(mesh, e, field, nq=nq)
    for k in range(mesh.num_cells):
        for c in range(4):
            gid = dofmap.jump_id[(k, c)]
            if gid >= 0:
                x[gid] = corner_jump_oracle(mesh, k, c, field)
    return x


def gather_matrix(mesh, dofmap, k):
    """(20, ndofs) local-to-global rows of cell k, from the dof numbering alone."""
    G = np.zeros((20, dofmap.ndofs))
    for j, e in enumerate(mesh.cell_edges[k]):
        for r in range(4):
            G[4 * r + j, 4 * e + r] = 1.0
    for c in range(4):
        gid = dofmap.jump_id[(k, c)]
        if gid >= 0:
            G[16 + c, gid] = 1.0
        else:
            for partner in dofmap.eliminated[(k, c)]:
                G[16 + c, dofmap.jump_id[partner]] = -1.0
    return G


def cell_values(cache, coeffs_k, emap, tab):
    """Pushed M_h components, row divergence and div div at the rule's nodes."""
    mref = np.tensordot(coeffs_k, tab.phi, axes=(0, 0))
    m = np.stack(push_components(emap, mref[:, 0], mref[:, 1], mref[:, 2]), axis=-1)
    dref = np.tensordot(coeffs_k, tab.divphi, axes=(0, 0))
    d = np.stack(push_divergence(emap, dref[:, 0], dref[:, 1]), axis=-1)
    return m, d, coeffs_k @ tab.ddphi / emap.det


def frob2(m):
    return m[..., 0] ** 2 + 2.0 * m[..., 1] ** 2 + m[..., 2] ** 2


# -- interpolation ------------------------------------------------------------------


@pytest.mark.parametrize("which", ["graded", "lshape"])
def test_interpolation_matches_scalar_formulas(which, graded_mesh):
    mesh = graded_mesh if which == "graded" else make_lshape(2)
    dofmap = build_dof_map(mesh)
    field = TensorField.random_poly(np.random.default_rng(7), deg=3)
    x = interpolate_ddiv(mesh, dofmap, field)
    assert rel_gap(x, interpolate_oracle(mesh, dofmap, field)) <= 1e-13


def test_neumann_constraints_match_scalar_formulas():
    ex2 = get_example("ex2")
    mesh = ex2.mesh(1)
    dofmap = build_dof_map(mesh)
    L, d = neumann_constraints(mesh, dofmap, ex2.neumann)
    want = []
    for e in mesh.neumann_edges():
        want.extend(edge_dofs_oracle(mesh, e, ex2.field))
    for v in neumann_interior_vertices(mesh):
        want.extend(corner_jump_oracle(mesh, k, c, ex2.field) for k, c in mesh.vertex_cells[v])
    assert len(d) == L.shape[0] == len(want)
    assert rel_gap(d, want) <= 1e-13


def dirichlet_load_oracle(mesh, dofmap, data, nq=6):
    """The clamped-data functional summed edge by edge and vertex by vertex."""
    load = np.zeros(dofmap.ndofs)
    rule = gauss_rule(nq, dim=1)
    s_pts, w = rule.points, rule.weights

    dir_edges = mesh.dirichlet_edges()
    for e in dir_edges:
        a, b = mesh.edges[e]
        va, vb = mesh.vertices[a], mesh.vertices[b]
        vec = vb - va
        ln = np.linalg.norm(vec)
        t = vec / ln
        n_edge = np.array([t[1], -t[0]])
        k = mesh.edge_cells[e, 0]
        j = list(mesh.cell_edges[k]).index(e)
        # outward normal of the single adjacent cell on this edge
        _, frame = cell_geometry(mesh, k)
        t_loc = frame.tangents[j] if frame.forward[j] else -frame.tangents[j]
        n_out = np.array([t_loc[1], -t_loc[0]])
        sigma = 1.0 if n_out @ n_edge > 0 else -1.0

        mid = 0.5 * (va + vb)
        x = mid[0] + 0.5 * s_pts * vec[0]
        y = mid[1] + 0.5 * s_pts * vec[1]
        gv = data.g(x, y)
        gr = data.grad_g(x, y)
        dng = n_out[0] * gr[..., 0] + n_out[1] * gr[..., 1]
        half = 0.5 * ln

        G0 = np.sum(w * gv) * half
        G1 = np.sum(w * gv * s_pts) * half
        H0 = np.sum(w * dng) * half
        H1 = np.sum(w * dng * s_pts) * half

        base = 4 * e
        load[base + 0] += H0
        load[base + 1] += 3.0 * H1
        load[base + 2] -= sigma * G0 / ln
        load[base + 3] -= sigma * 3.0 * G1 / ln

    dir_vertices = set()
    for e in dir_edges:
        dir_vertices.update(int(v) for v in mesh.edges[e])
    for v in sorted(dir_vertices):
        gval = float(data.g(*mesh.vertices[v]))
        for k, c in mesh.vertex_cells[v]:
            gid = dofmap.jump_id[(k, c)]
            if gid >= 0:
                load[gid] += gval
    return load


@pytest.mark.parametrize("which", ["lshape", "graded", "all-N", "all-D"])
def test_dirichlet_load_matches_an_edge_loop(which, graded_mesh):
    if which == "lshape":
        mesh = make_lshape(3)  # clamped notch, corner loads at the reentrant vertex
    elif which == "graded":
        mesh = graded_mesh
    else:
        base = make_lshape(2)
        label = NEUMANN if which == "all-N" else DIRICHLET
        mesh = Mesh(base.vertices, base.cells, default_label=label)
    data = DirichletData(
        lambda x, y: np.sin(x) * (1.0 + y**2),
        lambda x, y: np.stack([np.cos(x) * (1.0 + y**2), 2.0 * y * np.sin(x)], axis=-1),
    )
    dofmap = build_dof_map(mesh)
    got = dirichlet_load(mesh, dofmap, data)
    want = dirichlet_load_oracle(mesh, dofmap, data)
    if which == "all-N":
        assert not want.any() and not got.any()
    else:
        assert rel_gap(got, want) <= 1e-13


def test_p1_projection_and_source_load_match_a_cell_loop(graded_mesh):
    def f(x, y):
        return np.cos(x) * (1.0 + y**3)

    rule = gauss_rule(6, dim=2)
    xh, yh, w = rule.points[:, 0], rule.points[:, 1], rule.weights
    moments = np.zeros((graded_mesh.num_cells, 3))
    dets = np.zeros(graded_mesh.num_cells)
    for k in range(graded_mesh.num_cells):
        emap = element_map(graded_mesh, k)
        fv = f(*emap.apply(xh, yh))
        moments[k] = [np.sum(w * fv), np.sum(w * fv * xh), np.sum(w * fv * yh)]
        dets[k] = emap.det
    p1 = project_p1(graded_mesh, f)
    assert rel_gap(p1, moments / [4.0, 4.0 / 3.0, 4.0 / 3.0]) <= 1e-13
    assert rel_gap(source_load(graded_mesh, f), (moments * dets[:, None]).ravel()) <= 1e-13


def test_study_rows_equal_the_public_commuting_residual():
    # the study reuses its interpolant for the commuting residual; the rows
    # must be those of the public per-call function bit for bit
    field = TensorField.random_poly(np.random.default_rng(3), deg=3)
    rows = interpolation_error_study(field, range(0, 3))
    cache = BasisCache()
    for lvl, _, _, _, commres, ddnorm in rows:
        mesh = make_parallelogram_domain(EX1_CORNERS, lvl)
        got = commuting_residual(mesh, build_dof_map(mesh), field, cache=cache)
        assert got == (commres, ddnorm)


# -- cell coefficients ------------------------------------------------------------


class CountingCache(BasisCache):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def get(self, emap, frame):
        self.calls += 1
        return super().get(emap, frame)


def test_cell_coefficients_ask_the_cache_once_per_distinct_cell():
    knots = np.array([0.0, 0.17, 0.41, 0.7, 1.0])
    mesh = tensor_mesh(knots, np.array([0.0, 0.3, 0.45, 0.8, 1.0]))
    dofmap = build_dof_map(mesh)
    cache = CountingCache()
    x = np.random.default_rng(2).standard_normal(dofmap.ndofs)
    coeffs = cell_coefficients(mesh, dofmap, cache, x)
    assert len(cache) == 16 and cache.calls == 16

    first, group, _ = cache.groups(mesh)
    keys = [cache.key(*cell_geometry(mesh, k)) for k in range(mesh.num_cells)]
    assert np.array_equal(first, np.sort(first)) and np.all(group[first] == np.arange(len(first)))
    for k in range(mesh.num_cells):
        for j in range(mesh.num_cells):
            assert (group[k] == group[j]) == (keys[k] == keys[j])

    for k in range(mesh.num_cells):
        lb = cache.get(*cell_geometry(mesh, k))
        want = lb.Tinv @ gather_matrix(mesh, dofmap, k) @ x
        assert rel_gap(coeffs[k], want) <= 1e-13


@pytest.mark.parametrize("which", ["lshape", "parallelogram"])
def test_groups_follow_the_per_cell_keys(which):
    mesh = make_lshape(2) if which == "lshape" else make_parallelogram_domain(EX1_CORNERS, 2)
    cache = BasisCache()
    first, group, _ = cache.groups(mesh)
    keys = [cache.key(*cell_geometry(mesh, k)) for k in range(mesh.num_cells)]
    distinct = list(dict.fromkeys(keys))
    assert [keys[k] for k in first] == distinct
    assert [distinct.index(key) for key in keys] == list(group)


# -- assembly -------------------------------------------------------------------------


def assemble_oracle(mesh, dofmap, material, cache, nq=4):
    """Dense A and B summed cell by cell through gather matrices."""
    tab = cache.volume_tabulation(nq)
    phi, w = tab.phi, tab.rule.weights
    Bref = divdiv_matrix(cache.basis) * np.array([4.0, 4.0 / 3.0, 4.0 / 3.0])[None, :]
    A = np.zeros((dofmap.ndofs, dofmap.ndofs))
    B = np.zeros((3 * mesh.num_cells, dofmap.ndofs))
    for k in range(mesh.num_cells):
        emap, frame = cell_geometry(mesh, k)
        Tinv = cache.get(emap, frame).Tinv
        p = push_components(emap, phi[:, :, 0], phi[:, :, 1], phi[:, :, 2])
        c = material.apply_compliance(*p)
        Ahat = emap.det * sum(
            f * np.einsum("ip,jp,p->ij", ci, pi, w) for f, ci, pi in zip((1.0, 2.0, 1.0), c, p)
        )
        G = gather_matrix(mesh, dofmap, k)
        A += G.T @ (Tinv.T @ Ahat @ Tinv) @ G
        B[3 * k : 3 * k + 3] = Bref.T @ Tinv @ G
    return A, B


@pytest.mark.parametrize("which", ["graded", "lshape"])
def test_assembly_matches_a_gather_loop(which, graded_mesh):
    mesh = graded_mesh if which == "graded" else make_lshape(1)
    material = MaterialLaw("isotropic", E=2.0, nu=0.3) if which == "lshape" else MaterialLaw()
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    A, B = assemble(mesh, dofmap, material=material, cache=cache)
    A_want, B_want = assemble_oracle(mesh, dofmap, material, cache)
    assert rel_gap(A.toarray(), A_want) <= 1e-13
    assert rel_gap(B.toarray(), B_want) <= 1e-13


def test_saddle_matrix_stores_no_zeros():
    ex2 = get_example("ex2")
    mesh = ex2.mesh(2)
    dofmap = build_dof_map(mesh)
    system = build_system(
        mesh, dofmap, ex2.f, dirichlet=ex2.dirichlet, neumann=ex2.neumann, cache=BasisCache()
    )
    K, _ = system.full()
    assert K.nnz > 0
    assert np.all(K.data != 0.0)


# -- error integrals ------------------------------------------------------------------


def errors_oracle(mesh, cache, coeffs, field, orders, u=None, exact_u=None):
    """Squared error integrals cell by cell, with ``u`` and ``Mh`` as in l2_errors."""
    out = dict.fromkeys(["M", "div", "ddiv", "norm_M", "norm_div", "norm_ddiv", "u", "Mh"], 0.0)
    for k in range(mesh.num_cells):
        tab = cache.volume_tabulation(int(orders[k]))
        emap = element_map(mesh, k)
        x, y = emap.apply(tab.xh, tab.yh)
        w = tab.rule.weights * emap.det
        m, d, dd = cell_values(cache, coeffs[k], emap, tab)
        ex, exd, exdd = field.m(x, y), field.div(x, y), field.divdiv(x, y)
        out["M"] += np.sum(w * frob2(m - ex))
        out["norm_M"] += np.sum(w * frob2(ex))
        out["div"] += np.sum(w * ((d - exd) ** 2).sum(axis=1))
        out["norm_div"] += np.sum(w * (exd**2).sum(axis=1))
        out["ddiv"] += np.sum(w * (dd - exdd) ** 2)
        out["norm_ddiv"] += np.sum(w * exdd**2)
        out["Mh"] += np.sum(w * frob2(m))
        if u is not None:
            uh = u[k, 0] + u[k, 1] * tab.xh + u[k, 2] * tab.yh
            out["u"] += np.sum(w * (uh - exact_u(x, y)) ** 2)
    return out


def test_error_integrals_match_a_cell_loop():
    ex2 = get_example("ex2")
    cache = BasisCache()
    run = solve_example(ex2, 2, cache=cache)
    mesh, dofmap, result = run["mesh"], run["dofmap"], run["result"]
    orders = quadrature_orders(mesh, ex2, 6, 10)
    assert len(set(orders)) == 2
    coeffs = cell_coefficients(mesh, dofmap, cache, result["m"])

    want = errors_oracle(mesh, cache, coeffs, ex2.field, orders, result["u"], ex2.u)
    errs = l2_errors(mesh, dofmap, cache, result, ex2, nq=6, nq_singular=10)
    assert rel_gap(errs["u"], np.sqrt(want["u"])) <= 1e-12
    assert rel_gap(errs["M"], np.sqrt(want["M"])) <= 1e-12
    assert rel_gap(errs["norm_Mh"], np.sqrt(want["Mh"])) <= 1e-12
    assert errs["div"] is None and errs["ddiv"] is None

    # random coefficients give every integral, div div included, a size
    rand = np.random.default_rng(5).standard_normal(coeffs.shape)
    want = errors_oracle(mesh, cache, rand, ex2.field, orders)
    got = tensor_errors(mesh, cache, rand, ex2.field, cell_orders=orders)
    for key in ("M", "div", "ddiv", "norm_M", "norm_div"):
        assert rel_gap(got[key], want[key]) <= 1e-12, key
    assert got["norm_ddiv"] == 0.0

    tab = cache.volume_tabulation(2)
    dd2 = 0.0
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        dd2 += emap.det * np.sum(tab.rule.weights * (rand[k] @ tab.ddphi / emap.det) ** 2)
    assert rel_gap(ddiv_norm(mesh, cache, rand), np.sqrt(dd2)) <= 1e-12


def test_block_size_does_not_change_the_integrals(monkeypatch):
    import ddivfem.interpolation as interpolation

    ex2 = get_example("ex2")
    mesh = ex2.mesh(2)
    cache = BasisCache()
    orders = quadrature_orders(mesh, ex2, 6, 10)
    coeffs = np.random.default_rng(9).standard_normal((mesh.num_cells, 20))

    def integrals():
        errs = tensor_errors(mesh, cache, coeffs, ex2.field, cell_orders=orders)
        return np.array(list(errs.values())), project_p1(mesh, ex2.u)

    errs, p1 = integrals()
    monkeypatch.setattr(interpolation, "_BLOCK_CELLS", 7)
    small_errs, small_p1 = integrals()
    assert rel_gap(small_errs, errs) <= 1e-13
    assert rel_gap(small_p1, p1) <= 1e-13
