"""Batched cell kernels against per-cell and per-edge loop oracles.

Interpolation, cell coefficients, assembly, loads and the error integrals
run as array operations over all cells, edges and corners at once.  Each
test here writes out the one-cell (or one-edge) formula and loops over the
mesh, and requires the batched result to agree to rounding.
"""

import numpy as np
import pytest

from cellspec import (
    PhysicalDofFrame,
    as_scipy,
    cell_geometry,
    cell_key,
    element_map,
    push_components,
    push_divergence,
)
from ddivfem import piola
from ddivfem.interpolation import (
    TensorField,
    commuting_residual,
    ddiv_gap,
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
from ddivfem.piola import BasisCache, dof_matrices
from ddivfem.polys import gauss_rule
from ddivfem.problems import ddiv_norm, get_example, l2_errors, quadrature_orders, solve_example
from ddivfem.reference import divdiv_matrix
from ddivfem.space import build_dof_map, cell_coefficients
from ddivfem.system import (
    DirichletData,
    MaterialLaw,
    SaddleSystem,
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

    t_in, t_out = frame.local_tangent((c - 1) % 4), frame.local_tangent(c)
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
            for kk, cc in np.argwhere(mesh.cells == mesh.cells[k, c]):
                if (kk, cc) != (k, c):
                    G[16 + c, dofmap.jump_id[kk, cc]] = -1.0
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
        patch = np.argwhere(mesh.cells == v)
        want.extend(corner_jump_oracle(mesh, k, c, ex2.field) for k, c in patch)
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
        t_loc = frame.local_tangent(j)
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
        for k, c in np.argwhere(mesh.cells == v):
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
    """BasisCache that counts its ``get`` calls and the entries they add."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.added = 0

    def get(self, key, Tinv):
        before = len(self)
        self.calls += 1
        Tinv = super().get(key, Tinv)
        self.added += len(self) - before
        return Tinv


def test_groups_call_get_once_per_group():
    # the benchmark counts hits and misses through get: one call per group
    # on every groups call, and one new entry per miss
    knots = np.array([0.0, 0.17, 0.41, 0.7, 1.0])
    graded = tensor_mesh(knots, np.array([0.0, 0.3, 0.45, 0.8, 1.0]))
    uniform = make_parallelogram_domain(EX1_CORNERS, 3)
    for mesh, ngroups in ((graded, 16), (uniform, 1)):
        cache = CountingCache()
        cache.groups(mesh)
        assert (cache.calls, cache.added) == (ngroups, ngroups)
        cache.groups(mesh)
        assert (cache.calls, cache.added) == (2 * ngroups, ngroups)


def test_groups_build_only_the_groups_with_new_keys(monkeypatch):
    # one dof_matrices batch per groups call, of the first cells of all
    # groups, which the call hands out; only the groups not yet stored are
    # checked and inverted, stored groups are looked up, not inverted again
    knots = np.array([0.0, 0.17, 0.41, 0.7, 1.0])
    mesh = tensor_mesh(knots, np.array([0.0, 0.3, 0.45, 0.8, 1.0]))
    first, _, want_T, want = BasisCache().groups(mesh)
    built, inverted = [], []
    checked_inverses = piola._checked_inverses

    def counting(geometry, tab):
        built.append(len(geometry.B))
        return dof_matrices(geometry, tab)

    def counting_inverses(T):
        inverted.append(len(T))
        return checked_inverses(T)

    monkeypatch.setattr(piola, "dof_matrices", counting)
    monkeypatch.setattr(piola, "_checked_inverses", counting_inverses)
    cache = CountingCache()
    for i in (0, 5, 9):
        cache.get(cell_key(mesh, first[i]), want[i])
    _, _, T, Tinv = cache.groups(mesh)
    assert (built, inverted) == ([16], [13]) and (cache.calls, cache.added) == (3 + 16, 16)
    assert np.array_equal(T, want_T) and np.array_equal(Tinv, want)
    cache.groups(mesh)
    assert (built, inverted) == ([16, 16], [13])


def test_cell_coefficients_ask_the_cache_once_per_distinct_cell(cell_basis):
    knots = np.array([0.0, 0.17, 0.41, 0.7, 1.0])
    mesh = tensor_mesh(knots, np.array([0.0, 0.3, 0.45, 0.8, 1.0]))
    dofmap = build_dof_map(mesh)
    cache = CountingCache()
    x = np.random.default_rng(2).standard_normal(dofmap.ndofs)
    coeffs = cell_coefficients(mesh, dofmap, cache, x)
    assert len(cache) == 16 and cache.calls == 16

    first, group, _, _ = cache.groups(mesh)
    keys = [cell_key(mesh, k) for k in range(mesh.num_cells)]
    assert np.array_equal(first, np.sort(first)) and np.all(group[first] == np.arange(len(first)))
    for k in range(mesh.num_cells):
        for j in range(mesh.num_cells):
            assert (group[k] == group[j]) == (keys[k] == keys[j])

    for k in range(mesh.num_cells):
        _, Tinv = cell_basis(cache, mesh, k)
        want = Tinv @ gather_matrix(mesh, dofmap, k) @ x
        assert rel_gap(coeffs[k], want) <= 1e-13


@pytest.mark.parametrize("which", ["lshape", "parallelogram"])
def test_groups_follow_the_per_cell_keys(which):
    mesh = make_lshape(2) if which == "lshape" else make_parallelogram_domain(EX1_CORNERS, 2)
    cache = BasisCache()
    first, group, _, _ = cache.groups(mesh)
    keys = [cell_key(mesh, k) for k in range(mesh.num_cells)]
    distinct = list(dict.fromkeys(keys))
    assert [keys[k] for k in first] == distinct
    assert [distinct.index(key) for key in keys] == list(group)


# -- assembly -------------------------------------------------------------------------


def assemble_oracle(mesh, dofmap, material, cache, cell_basis, nq=4):
    """Dense A and B summed cell by cell through gather matrices."""
    tab = cache.volume_tabulation(nq)
    phi, w = tab.phi, tab.rule.weights
    Bref = divdiv_matrix(cache.basis) * np.array([4.0, 4.0 / 3.0, 4.0 / 3.0])[None, :]
    A = np.zeros((dofmap.ndofs, dofmap.ndofs))
    B = np.zeros((3 * mesh.num_cells, dofmap.ndofs))
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        _, Tinv = cell_basis(cache, mesh, k)
        p = push_components(emap, phi[:, :, 0], phi[:, :, 1], phi[:, :, 2])
        c = material.apply_compliance(*p)
        Ahat = emap.det * sum(
            f * np.einsum("ip,jp,p->ij", ci, pi, w) for f, ci, pi in zip((1.0, 2.0, 1.0), c, p)
        )
        G = gather_matrix(mesh, dofmap, k)
        A += G.T @ (Tinv.T @ Ahat @ Tinv) @ G
        B[3 * k : 3 * k + 3] = Bref.T @ Tinv @ G
    return A, B


def rotated(mesh, scale, angle=0.7):
    """The mesh rotated by ``angle`` about the origin and scaled by ``scale``."""
    c, s = np.cos(angle), np.sin(angle)
    return Mesh(scale * mesh.vertices @ np.array([[c, s], [-s, c]]), mesh.cells)


#: scales of the rotated graded meshes, whose cells are all distinct and
#: none of them axis aligned
ROTATED_SCALES = {"rotated-graded-1e-15": 1e-15, "rotated-graded-1": 1.0, "rotated-graded-1e8": 1e8}


@pytest.mark.parametrize("which", ["graded", "lshape"] + list(ROTATED_SCALES))
def test_assembly_matches_a_gather_loop(which, graded_mesh, cell_basis):
    if which in ROTATED_SCALES:
        mesh = rotated(graded_mesh, ROTATED_SCALES[which])
    else:
        mesh = graded_mesh if which == "graded" else make_lshape(1)
    material = MaterialLaw() if which == "graded" else MaterialLaw(E=2.0, nu=0.3)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    cells, B = assemble(mesh, dofmap, material=material, cache=cache)
    nd, nu = dofmap.ndofs, 3 * mesh.num_cells
    system = SaddleSystem(cells, B, None, np.zeros(nd), np.zeros(nu), np.zeros(0), nd, nu)
    A = system.full()[0][:nd, :nd]
    A_want, B_want = assemble_oracle(mesh, dofmap, material, cache, cell_basis)
    assert rel_gap(A.toarray(), A_want) <= 1e-13
    assert rel_gap(as_scipy(B).toarray(), B_want) <= 1e-13


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
    out = dict.fromkeys(["M", "div", "ddiv", "norm_M", "norm_ddiv", "u", "Mh"], 0.0)
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
        out["ddiv"] += np.sum(w * (dd - exdd) ** 2)
        out["norm_ddiv"] += np.sum(w * exdd**2)
        out["Mh"] += np.sum(w * frob2(m))
        if u is not None:
            uh = u[k, 0] + u[k, 1] * tab.xh + u[k, 2] * tab.yh
            out["u"] += np.sum(w * (uh - exact_u(x, y)) ** 2)
    return out


def random_coefficient_errors(mesh, cache, coeffs, field, orders):
    """The oracle's and the library's error integrals of ``coeffs``, checked to agree."""
    want = errors_oracle(mesh, cache, coeffs, field, orders)
    got = tensor_errors(mesh, cache, coeffs, field, nq=orders)
    assert set(got) == {"M", "div", "ddiv", "norm_M", "norm_Mh"}
    for key in ("M", "div", "ddiv", "norm_M"):
        assert rel_gap(got[key], want[key]) <= 1e-12, key
    assert rel_gap(got["norm_Mh"], want["Mh"]) <= 1e-12
    return want, got


def test_error_integrals_match_a_cell_loop(graded_mesh):
    ex2 = get_example("ex2")
    cache = BasisCache()
    run = solve_example(ex2, 2, cache=cache)
    mesh, dofmap, result = run["mesh"], run["dofmap"], run["result"]
    orders = quadrature_orders(mesh, ex2)
    assert len(set(orders)) == 2
    coeffs = cell_coefficients(mesh, dofmap, cache, result["m"])

    want = errors_oracle(mesh, cache, coeffs, ex2.field, orders, result["u"], ex2.u)
    errs = l2_errors(mesh, dofmap, cache, result, ex2)
    assert rel_gap(errs["u"], np.sqrt(want["u"])) <= 1e-12
    assert rel_gap(errs["M"], np.sqrt(want["M"])) <= 1e-12
    assert rel_gap(errs["norm_Mh"], np.sqrt(want["Mh"])) <= 1e-12
    assert errs["div"] is None and errs["ddiv"] is None

    # random coefficients give every integral, div div included, a size
    rand = np.random.default_rng(5).standard_normal(coeffs.shape)
    want, got = random_coefficient_errors(mesh, cache, rand, ex2.field, orders)
    # ex2 carries no load, so its div div error is all of div div M_h
    assert want["norm_ddiv"] == 0.0 and got["ddiv"] > 0.0
    # the L-shape cells map by diagonal B; a rotated graded mesh has the
    # cross terms of the push on every cell
    graded = rotated(graded_mesh, 1.0)
    mixed = np.where(np.arange(graded.num_cells) % 3 == 0, 10, 6)
    field = TensorField.random_poly(np.random.default_rng(8), deg=3)
    rand_graded = np.random.default_rng(4).standard_normal((graded.num_cells, 20))
    random_coefficient_errors(graded, cache, rand_graded, field, mixed)

    # div div M_h - p is linear per cell, so a 2-point rule integrates its square
    tab = cache.volume_tabulation(2)
    p1 = np.random.default_rng(6).standard_normal((mesh.num_cells, 3))
    dd2, gap2, p2 = 0.0, 0.0, 0.0
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        ddh = rand[k] @ tab.ddphi / emap.det
        p = p1[k] @ [np.ones_like(tab.xh), tab.xh, tab.yh]
        dd2 += emap.det * np.sum(tab.rule.weights * ddh**2)
        gap2 += emap.det * np.sum(tab.rule.weights * (ddh - p) ** 2)
        p2 += emap.det * np.sum(tab.rule.weights * p**2)
    assert rel_gap(ddiv_norm(mesh, cache, rand), np.sqrt(dd2)) <= 1e-12
    got_gap2, got_p2 = ddiv_gap(mesh, cache, rand, p1)
    assert rel_gap(got_gap2, gap2) <= 1e-12 and rel_gap(got_p2, p2) <= 1e-12


def test_block_size_does_not_change_the_integrals(monkeypatch):
    ex2 = get_example("ex2")
    mesh = ex2.mesh(2)
    cache = BasisCache()
    orders = quadrature_orders(mesh, ex2)
    coeffs = np.random.default_rng(9).standard_normal((mesh.num_cells, 20))

    def integrals():
        errs = tensor_errors(mesh, cache, coeffs, ex2.field, nq=orders)
        return np.array(list(errs.values())), project_p1(mesh, ex2.u)

    errs, p1 = integrals()
    monkeypatch.setattr(piola, "_BLOCK_CELLS", 7)
    small_errs, small_p1 = integrals()
    assert rel_gap(small_errs, errs) <= 1e-13
    assert rel_gap(small_p1, p1) <= 1e-13
