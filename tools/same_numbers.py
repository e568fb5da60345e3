"""Print which fixed outputs of the library differ from those of a parent commit.

    python3 tools/same_numbers.py --parent a414132

Run from the root of the changed checkout.  The parent commit is exported
into a temporary directory by ``tools/parent_checkout.py``, as for
``tools/bench_record.py``.  In each checkout, with that checkout's ``src`` on the path, this
script computes the same fixed set of outputs:

- the ``convergence_study`` rows of ex1 and ex2 at levels 1-5, conformity
  included, by ``repr``;
- the bytes of ``m``, ``u`` and ``lambda`` of ``solve_example`` for ex1 and
  ex2 at levels 1, 3 and 5, and the ``repr`` of its solver and conformity
  dicts;
- the same five outputs of ``solve_problem`` on ``make_lshape(3)`` rotated
  by ``ROTATED_ANGLE`` with its labels, f = 1 and the Neumann data of
  ``TensorField.random_poly(default_rng(0), 2)``: 192 cells in 119 cell
  groups, so the per-group paths of assembly, solve and conformity check
  see many groups; and once more with the isotropic law E = 2, nu = 0.3,
  so that one output goes through a compliance that is not the identity;
- on that rotated L-shape, whose cells fall into many blocks of the
  geometry record: for each of the two solves the ``tensor_errors`` of its
  ``coeffs`` against the Neumann field, with the ex2 ``quadrature_orders``
  (raised at the reentrant corner, the origin), and the ``ddiv_gap`` of the
  same ``coeffs`` against ``project_p1`` of f; once, ``project_p1`` of the
  Neumann field's div div (that of f = 1 is the same on every cell) and
  the ``commuting_residual`` of that field;
- the bytes of that rotated L-shape's geometry record, its B, a, det,
  tangents, lengths and forward (as 0 and 1) concatenated, read through
  ``mesh.geometry``, or ``batch_geometry`` on a parent without it;
- the bytes of ``m``, ``u`` and ``lambda`` and the ``repr`` of the solver
  dict of ``solve_problem`` with the ex2 data on ex2 at level
  ``RENUMBERED_LEVEL``, its cells and vertices in the order of
  ``default_rng(RENUMBERED_SEED)`` permutations, boundary labels carried
  along: the solver's block cover then meets a numbering that
  ``refine_uniform`` did not make, so a change of the cover shows;
- the ``repr`` of ``check_conformity`` on raw coefficients, on ex2 at level
  ``RAW_LEVEL`` and on the rotated L-shape above, for two fields each: a
  random (ncells, 20) array drawn from ``default_rng(RAW_SEED)``, and the
  conforming field of a random global vector with one cell's coefficients
  moved by a random vector;
- the ``interpolation_error_study`` rows, levels 0-5 as in the
  ``interp-commute`` workload, of ``TensorField.random_poly(default_rng(s),
  3)`` for s = 1-10, by ``repr``;
- the stdout and the mesh and solution files of ``ddivfem solve --problem
  {ex1,ex2} --level 2``, and the stdout of ``ddivfem verify``;
- the ten verdict lines of ``tests/test_acceptance.py``, timings masked.

Each checkout's outputs are computed under ``-W error::RuntimeWarning``, the
warning policy of the test suite, so a numpy overflow fails the run.  It
prints one line per output, ``same`` or ``DIFFERS``, and exits 1 when any
output differs.  Outputs are compared by SHA-256 digest, so a difference in
the last bit of one number counts.  A differing output is followed by its
largest relative change: over a solution vector max |new - old| / max |old|,
over a text (rows, dicts, printed lines) the largest |new - old| / |old| of
the numbers in it, read in order, with the two values, or the two counts
when they differ.  Over a dict whose key set changed, it is the keys added
and the keys removed instead.
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile

from parent_checkout import parent_checkout

LEVELS = range(1, 6)
SOLVE_LEVELS = (1, 3, 5)
INTERP_LEVELS = range(0, 6)
INTERP_SEEDS = range(1, 11)
CLI_LEVEL = 2
ROTATED_LEVEL = 3
ROTATED_ANGLE = 0.7
RAW_LEVEL = 3
RAW_SEED = 7
RENUMBERED_LEVEL = 3
RENUMBERED_SEED = 1

#: the timing of a verdict line, e.g. "in 0.05 s"
TIMING = re.compile(r" in [0-9.e+-]+ s\b")

#: a number in a text, as repr or printf writes it
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def digest(data):
    """The digest of an output and the numbers in it: a text's, or an array's entries.

    A dict is digested as the ``repr`` of its sorted items, and its keys are kept.
    """
    keys = None
    if isinstance(data, dict):
        keys, data = sorted(data), repr(sorted(data.items()))
    if isinstance(data, str):
        numbers, kind, data = [float(x) for x in NUMBER.findall(data)], "text", data.encode()
    else:
        numbers, kind, data = data.ravel().tolist(), "vector", data.tobytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "kind": kind, "numbers": numbers,
            "keys": keys}


def largest_change(old, new):
    """The largest relative change from one output to another, as text."""
    import numpy as np

    if old["keys"] != new["keys"]:
        added = sorted(set(new["keys"]) - set(old["keys"]))
        removed = sorted(set(old["keys"]) - set(new["keys"]))
        return "keys added %s, removed %s" % (added, removed)
    a, b = np.array(old["numbers"]), np.array(new["numbers"])
    if a.shape != b.shape:
        return "%d numbers, were %d" % (len(b), len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        if old["kind"] == "vector":
            change = np.abs(b - a).max(initial=0.0) / np.abs(a).max(initial=0.0)
            return "largest relative change %.1e" % change
        change = np.where(a != b, np.abs(b - a) / np.abs(a), 0.0)
    i = int(np.argmax(change))
    return "largest relative change %.1e (%r -> %r)" % (change[i], float(a[i]), float(b[i]))


def library_outputs():
    """Digest of every library output, by name; runs inside one checkout."""
    import numpy as np

    from ddivfem import TensorField, convergence_study, get_example, interpolation_error_study
    from ddivfem import BasisCache, MaterialLaw, NeumannData, build_system, solve_example
    from ddivfem import commuting_residual, piola, project_p1, solve_problem, tensor_errors
    from ddivfem.interpolation import ddiv_gap
    from ddivfem.problems import quadrature_orders
    from ddivfem import cell_coefficients, check_conformity
    from ddivfem.cli import main as cli_main
    from ddivfem.mesh import Mesh, make_lshape
    from ddivfem.space import build_dof_map

    out = {}
    for problem in ("ex1", "ex2"):
        report = convergence_study(problem, levels=max(LEVELS), start=min(LEVELS))
        out["convergence %s rows" % problem] = digest(repr(report.rows))
        exact = get_example(problem)
        for level in SOLVE_LEVELS:
            result = solve_example(exact, level)["result"]
            for key in ("m", "u", "lambda"):
                out["solve %s L%d %s" % (problem, level, key)] = digest(result[key])
            for key in ("solver", "conformity"):
                out["solve %s L%d %s" % (problem, level, key)] = digest(result[key])

    base = make_lshape(ROTATED_LEVEL)
    c, s = np.cos(ROTATED_ANGLE), np.sin(ROTATED_ANGLE)
    b = base.boundary_edges
    labels = {frozenset(pair): lab for pair, lab in zip(base.edges[b].tolist(), base.edge_label[b])}
    mesh = Mesh(base.vertices @ np.array([[c, s], [-s, c]]), base.cells, labels)
    # parents before the mesh held its record build it with batch_geometry
    record = mesh.geometry if hasattr(Mesh, "geometry") else piola.batch_geometry(mesh)
    out["rotated lshape L%d geometry record" % ROTATED_LEVEL] = digest(
        np.concatenate([np.ravel(part).astype(float) for part in record]))
    dofmap = build_dof_map(mesh)
    neumann = NeumannData(TensorField.random_poly(np.random.default_rng(0), 2))
    orders, cache = quadrature_orders(mesh, get_example("ex2")), BasisCache()
    f_p1 = project_p1(mesh, lambda x, y: np.ones_like(x))
    # parents before the keyword-only law take its kind first
    isotropic = ("isotropic",) if "kind" in inspect.signature(MaterialLaw).parameters else ()
    for law, material in (("", None), (" E=2 nu=0.3", MaterialLaw(*isotropic, E=2.0, nu=0.3))):
        system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x), material=material,
                              neumann=neumann)
        result = solve_problem(mesh, dofmap, system)
        name = "solve rotated lshape L%d%s" % (ROTATED_LEVEL, law)
        for key in ("m", "u", "lambda"):
            out["%s %s" % (name, key)] = digest(result[key])
        for key in ("solver", "conformity"):
            out["%s %s" % (name, key)] = digest(result[key])
        errors = tensor_errors(mesh, cache, result["coeffs"], neumann.field, nq=orders)
        out[name + " tensor_errors"] = digest(errors)
        out[name + " ddiv_gap"] = digest(repr(ddiv_gap(mesh, cache, result["coeffs"], f_p1)))
    name = "rotated lshape L%d Neumann field" % ROTATED_LEVEL
    out[name + " project_p1 divdiv"] = digest(project_p1(mesh, neumann.field.divdiv))
    out[name + " commuting_residual"] = digest(repr(commuting_residual(mesh, dofmap, neumann.field)))

    ex2, rng = get_example("ex2"), np.random.default_rng(RENUMBERED_SEED)
    base = ex2.mesh(RENUMBERED_LEVEL)
    cells, vertices = rng.permutation(base.num_cells), rng.permutation(base.num_vertices)
    new = np.empty_like(vertices)
    new[vertices] = np.arange(len(vertices))
    b = base.boundary_edges
    labels = {frozenset(new[pair].tolist()): lab for pair, lab in zip(base.edges[b], base.edge_label[b])}
    renumbered = Mesh(base.vertices[vertices], new[base.cells[cells]], labels)
    dofmap = build_dof_map(renumbered)
    system = build_system(renumbered, dofmap, ex2.f, material=ex2.material,
                          dirichlet=ex2.dirichlet, neumann=ex2.neumann)
    result = solve_problem(renumbered, dofmap, system)
    name = "solve ex2 L%d renumbered" % RENUMBERED_LEVEL
    for key in ("m", "u", "lambda"):
        out["%s %s" % (name, key)] = digest(result[key])
    out[name + " solver"] = digest(result["solver"])

    meshes = [("ex2 L%d" % RAW_LEVEL, get_example("ex2").mesh(RAW_LEVEL)), ("rotated lshape", mesh)]
    for name, mesh in meshes:
        dofmap, cache = build_dof_map(mesh), BasisCache()
        rng = np.random.default_rng(RAW_SEED)
        raw = rng.standard_normal((mesh.num_cells, 20))
        moved = cell_coefficients(mesh, dofmap, cache, rng.standard_normal(dofmap.ndofs))
        moved[mesh.num_cells // 2] += rng.standard_normal(20)
        for field, coeffs in (("random", raw), ("moved cell", moved)):
            report = check_conformity(mesh, dofmap, coeffs, cache=cache)
            out["raw conformity %s %s" % (name, field)] = digest(report)

    for seed in INTERP_SEEDS:
        field = TensorField.random_poly(np.random.default_rng(seed), 3)
        rows = interpolation_error_study(field, INTERP_LEVELS)
        out["interpolation seed %d rows" % seed] = digest(repr(rows))

    # relative output paths in a fresh directory, so that the recorded
    # configuration is the same in both checkouts
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for problem in ("ex1", "ex2"):
                argv = ["solve", "--problem", problem, "--level", str(CLI_LEVEL),
                        "--mesh-out", "mesh.txt", "--solution-out", "solution.json"]
                name = "ddivfem solve %s L%d" % (problem, CLI_LEVEL)
                out[name + " stdout"] = digest(_stdout(cli_main, argv))
                for path in ("mesh.txt", "solution.json"):
                    with open(path) as fh:
                        out["%s %s" % (name, path)] = digest(fh.read())
            out["ddivfem verify stdout"] = digest(_stdout(cli_main, ["verify"]))
        finally:
            os.chdir(here)
    return out


def _stdout(fn, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn(argv)
    return buf.getvalue()


def acceptance_verdicts(checkout):
    """The verdict lines of the acceptance tests of a checkout, timings masked."""
    cmd = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q",
           "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = re.findall(r"(?:PASS|FAIL)  criterion.*", proc.stdout)
    return [TIMING.sub(" in <t> s", line) for line in lines]


def outputs(checkout):
    """All outputs of one checkout, by name."""
    cmd = [sys.executable, "-W", "error::RuntimeWarning", os.path.abspath(__file__), "--dump"]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    verdicts = acceptance_verdicts(os.path.abspath(checkout))
    out["acceptance verdicts (%d lines)" % len(verdicts)] = digest("\n".join(verdicts))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="commit to compare this checkout against")
    ap.add_argument("--dump", action="store_true",
                    help="print this checkout's library output digests as one JSON line")
    args = ap.parse_args(argv)
    if args.dump:
        print(json.dumps(library_outputs()))
        return 0
    if args.parent is None:
        ap.error("--parent is required")

    with parent_checkout(args.parent) as (commit, parent):
        want = outputs(parent)
    got = outputs(".")
    differ = 0
    for name in sorted(set(want) | set(got)):
        old, new = want.get(name), got.get(name)
        same = old is not None and new is not None and old["sha256"] == new["sha256"]
        differ += not same
        change = "" if same or old is None or new is None else ": " + largest_change(old, new)
        print("%-8s %s%s" % ("same" if same else "DIFFERS", name, change))
    print("%s against %s: %d of %d outputs differ"
          % (os.path.abspath("."), commit, differ, len(set(want) | set(got))))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
