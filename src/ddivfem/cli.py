"""Command line driver.

Subcommands:

``verify``
    algebraic checks of the reference shape tensors and the element maps;
    exits nonzero if any check fails.
``interp-test``
    interpolation error table over a refinement sequence, with the
    commuting residual of each level.
``solve``
    solve one benchmark problem at a single refinement level, optionally
    writing the mesh and the solution coefficients.
``convergence``
    error table over a level range, written as CSV plus a JSON summary;
    exits nonzero if an acceptance band fails.
``sample-basis``
    grid samples of one reference shape tensor (components, divergence,
    double divergence), the raw data behind the shape-function plots.

File output uses fixed 17-significant-digit float formatting, so repeated
runs with identical configuration produce byte-identical artifacts.
"""

import argparse
import json
import sys

import numpy as np

from .interpolation import TensorField, interpolate_ddiv, interpolation_error_study, tensor_errors
from .mesh import EX1_CORNERS, make_lshape, make_parallelogram_domain
from .piola import BasisCache, batch_geometry, dof_matrices
from .problems import convergence_study, get_example, solve_example
from .reference import (
    build_reference_basis,
    divdiv_matrix,
    in_reference_space,
    sample_field,
    trace_degrees,
    verify_unisolvency,
)
from .space import DofMap, build_dof_map, cell_coefficients, check_conformity

FMT = "%.17g"

# Physical dofs of the pushed shape tensors on the reference square meshed as a
# single cell.  The lattice numbering orients the north and west edges against
# the counterclockwise traversal, which flips the first-moment and shear-mean
# dofs there; the remaining entries are the reference dof norms.
IDENTITY_DOF_SIGNS = np.array(
    [1.0, 1.0, 1.0, 1.0]
    + [1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]
    + [2.0, 2.0, -2.0, -2.0]
    + [2.0 / 3.0] * 4
    + [1.0] * 4
)

SQUARE_CORNERS = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


def _config(args):
    cfg = dict(vars(args))
    cfg.pop("func", None)
    return cfg


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit("cannot write %s: %s" % (path, exc))


# -- verify ---------------------------------------------------------------------


def _reference_checks(basis, tol):
    checks = []

    bad = (np.flatnonzero(~in_reference_space(basis)) + 1).tolist()
    checks.append(
        (
            "component masks",
            not bad,
            "all 20 shape tensors inside the local space"
            if not bad
            else "shape tensor(s) %s have components outside the local space" % bad,
        )
    )

    rep = verify_unisolvency(basis, tol=tol)
    dof, j = rep["worst_pair"]
    checks.append(
        (
            "dof matrix vs identity",
            rep["ok"],
            "max deviation %.3e (functional %s on shape tensor %d, tol %g)"
            % (rep["max_deviation"], dof, j, tol),
        )
    )

    deg_nn, deg_sh = trace_degrees(basis)
    checks.append(
        (
            "edge trace degrees",
            deg_nn <= 1 and deg_sh <= 1,
            "normal moment degree %d, effective shear degree %d (bound 1)"
            % (deg_nn, deg_sh),
        )
    )

    try:
        dd = divdiv_matrix(basis)
    except ValueError as exc:
        checks.append(("div div images", False, str(exc)))
    else:
        pinned = {0: (0.0, 0.0, 1.5), 3: (0.0, 1.5, 0.0), 8: (0.5, 0.0, -1.5)}
        offenders = [i + 1 for i, row in pinned.items() if not np.array_equal(dd[i], row)]
        rank = int(np.linalg.matrix_rank(dd))
        ok = rank == 3 and not offenders
        checks.append(
            (
                "div div images",
                ok,
                "rank %d, pinned coefficient rows exact" % rank
                if ok
                else "rank %d, wrong coefficients for shape tensor(s) %s"
                % (rank, offenders),
            )
        )
    return checks


def _map_checks(basis, tol):
    checks = []
    cache = BasisCache(basis)

    square = make_parallelogram_domain(SQUARE_CORNERS, 0)
    T = dof_matrices(batch_geometry(square), cache.edge_tabulation())[0]
    dev = float(np.abs(T - np.diag(IDENTITY_DOF_SIGNS)).max())
    checks.append(
        (
            "identity-cell dof matrix",
            dev <= tol,
            "max deviation %.3e from the signed diagonal (tol %g)" % (dev, tol),
        )
    )

    mesh = make_parallelogram_domain(EX1_CORNERS, 2)
    dofmap = build_dof_map(mesh)
    # entrywise linear: entry [i][j] holds the (xx, xy, yy) coefficients of x**i y**j
    field = TensorField.from_grid(
        [[[0.3, -0.2, 0.8], [-0.4, 0.5, 0.2]], [[0.7, 0.1, -0.6], [0.0, 0.0, 0.0]]]
    )
    mcoef = interpolate_ddiv(mesh, dofmap, field)
    coeffs = cell_coefficients(mesh, dofmap, cache, mcoef)
    err = float(np.sqrt(tensor_errors(mesh, cache, coeffs, field)["M"]))
    checks.append(
        (
            "linear tensor reproduction",
            err <= 1e-11,
            "interpolation error %.3e on a sheared mesh (tol 1e-11)" % err,
        )
    )

    conf = check_conformity(mesh, dofmap, coeffs, cache=cache)
    checks.append(
        (
            "interface conformity",
            conf["max_violation"] <= 1e-9,
            "worst interface mismatch %.3e (tol 1e-9)" % conf["max_violation"],
        )
    )

    meshes = [
        square,
        make_parallelogram_domain(EX1_CORNERS, 1),
        mesh,
        make_lshape(0),
        make_lshape(1),
    ]
    wrong = []
    for m in meshes:
        # not build_dof_map, whose own count check would raise before this one
        dm = DofMap(m)
        want = 4 * m.num_edges + 4 * m.num_cells - len(m.interior_vertices)
        if dm.ndofs != want:
            wrong.append("%d cells: %d vs %d" % (m.num_cells, dm.ndofs, want))
    checks.append(
        (
            "dof count formula",
            not wrong,
            "4#E + 4#K - #N0 on %d meshes" % len(meshes)
            if not wrong
            else "; ".join(wrong),
        )
    )
    return checks


def cmd_verify(args):
    basis = build_reference_basis()
    if args.corrupt_phi is not None:
        i = args.corrupt_phi
        if not 1 <= i <= 20:
            raise SystemExit("--corrupt-phi must be in 1..20")
        basis[2, 1, i - 1, 0] += 0.25  # x^2 y in the xx component
        print("note: shape tensor %d deliberately damaged (negative control)" % i)

    groups = []
    try:
        groups.append(("reference element", _reference_checks(basis, args.tol)))
    except Exception as exc:
        groups.append(("reference element", [("suite", False, "%s: %s" % (type(exc).__name__, exc))]))
    try:
        groups.append(("element maps", _map_checks(basis, args.tol)))
    except Exception as exc:
        groups.append(("element maps", [("suite", False, "%s: %s" % (type(exc).__name__, exc))]))

    failures = 0
    total = 0
    for title, checks in groups:
        print(title)
        for name, ok, detail in checks:
            total += 1
            failures += 0 if ok else 1
            print("  %s  %-26s %s" % ("PASS" if ok else "FAIL", name, detail))
    print("verify: %d of %d checks passed" % (total - failures, total))
    return 1 if failures else 0


# -- interp-test ------------------------------------------------------------------


def cmd_interp_test(args):
    if args.levels < 0:
        raise SystemExit("--levels must be at least 0")
    if not 1 <= args.quad <= 16:
        raise SystemExit("--quad must be in 1..16")
    if args.degree < 0:
        raise SystemExit("--degree must be at least 0")
    rng = np.random.default_rng(args.seed)
    field = TensorField.random_poly(rng, deg=args.degree)
    rows = interpolation_error_study(field, range(args.levels + 1), nq=args.quad)

    print("interpolation of a random degree-%d tensor field (seed %d)" % (args.degree, args.seed))
    print("%5s %12s %12s %6s %12s" % ("level", "h", "err", "eoc", "commuting"))
    ok = True
    for level, h, err, eoc, commres, ddnorm in rows:
        bound = args.commuting_tol * (1.0 + ddnorm)
        ok = ok and commres <= bound
        print(
            "%5d %12.4e %12.4e %6s %12.4e"
            % (level, h, err, "-" if eoc is None else "%.2f" % eoc, commres)
        )
    last = rows[-1]
    if last[3] is not None:
        print("final order %.3f" % last[3])
    print(
        "commuting residuals %s %g * (1 + |div div M|)"
        % ("within" if ok else "EXCEED", args.commuting_tol)
    )
    return 0 if ok else 1


# -- solve ------------------------------------------------------------------------


def _fmt_err(v):
    return "-" if v is None else "%.6e" % v


def _check_rtol(rtol):
    # written so that NaN fails too
    if not (np.isfinite(rtol) and rtol > 0.0):
        raise SystemExit("--rtol must be a positive finite number")


def cmd_solve(args):
    if args.level < 0:
        raise SystemExit("--level must be at least 0")
    _check_rtol(args.rtol)
    cache = BasisCache()
    exact = get_example(args.problem)
    run = solve_example(exact, args.level, cache=cache, rtol=args.rtol)
    mesh, result, errs = run["mesh"], run["result"], run["errors"]

    print(
        "problem %s, level %d: %d cells, %d edges, %d tensor dofs"
        % (args.problem, args.level, mesh.num_cells, mesh.num_edges, run["dofmap"].ndofs)
    )
    info = result["solver"]
    ratio = info["pivot_ratio"]
    print(
        "solver: %s, residual %.3e, %d refinement step(s), multiplier system n %d "
        "in %d patch(es) and %d block level(s) above them, root front %d, "
        "min pivot/diagonal %s"
        % (
            info["path"], info["residual"], info["refined"],
            info["condensed_n"] + info["root_n"], info["patches"], info["levels"],
            info["root_n"], "-" if ratio is None else "%.3e" % ratio,
        )
    )
    print("conformity: worst interface mismatch %.3e" % result["conformity"]["max_violation"])
    print("moment balance: |div div M_h - P f| = %.3e" % result["ddiv_residual"])
    print(
        "errors: u %s  M %s  divdiv %s  div %s"
        % (_fmt_err(errs["u"]), _fmt_err(errs["M"]), _fmt_err(errs["ddiv"]), _fmt_err(errs["div"]))
    )

    if args.mesh_out:
        try:
            mesh.export_text(args.mesh_out)
        except OSError as exc:
            raise SystemExit("cannot write %s: %s" % (args.mesh_out, exc))
        print("mesh written to %s" % args.mesh_out)
    if args.solution_out:
        payload = {
            "schema_version": 1,
            "config": _config(args),
            "ndofs": run["dofmap"].ndofs,
            "solver": {
                "path": info["path"],
                "residual": float(info["residual"]),
                "refined": int(info["refined"]),
            },
            "conformity": result["conformity"]["max_violation"],
            "moment_balance": result["ddiv_residual"],
            "errors": errs,
            "moment_coefficients": result["m"].tolist(),
            "deflection_coefficients": result["u"].tolist(),
            "multipliers": result["lambda"].tolist(),
        }
        _write_text(args.solution_out, json.dumps(payload, indent=2, sort_keys=True))
        print("solution written to %s" % args.solution_out)
    return 0


# -- convergence --------------------------------------------------------------------


def cmd_convergence(args):
    if args.start_level < 0:
        raise SystemExit("--start-level must be at least 0")
    if args.start_level > args.levels:
        raise SystemExit("--start-level exceeds --levels")
    _check_rtol(args.rtol)
    report = convergence_study(
        args.problem, levels=args.levels, start=args.start_level, rtol=args.rtol
    )
    report.extras["config"] = _config(args)
    print(report.table())
    for key, verdict in sorted(report.band_check().items()):
        if "eoc" in verdict:
            print(
                "band %-8s eoc %s in [%g, %g]: %s"
                % (
                    key,
                    "-" if verdict["eoc"] is None else "%.3f" % verdict["eoc"],
                    verdict["band"][0],
                    verdict["band"][1],
                    "pass" if verdict["pass"] else "FAIL",
                )
            )
        else:
            print("band %-8s %s" % (key, "pass" if verdict["pass"] else "FAIL"))
    if args.out:
        csv_path = args.out
        json_path = (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"
        _write_text(csv_path, report.to_csv())
        _write_text(json_path, report.to_json())
        print("table written to %s, summary to %s" % (csv_path, json_path))
    return 0 if report.all_pass() else 1


# -- sample-basis --------------------------------------------------------------------


def cmd_sample_basis(args):
    if not 1 <= args.phi <= 20:
        raise SystemExit("--phi must be in 1..20")
    if args.grid < 2:
        raise SystemExit("--grid must be at least 2")
    basis = build_reference_basis()
    rows = sample_field(basis[:, :, args.phi - 1], args.grid)
    lines = ["x,y,Mxx,Mxy,Myy,divM_x,divM_y,divdivM"]
    for row in rows:
        lines.append(",".join(FMT % v for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        print("%d samples of shape tensor %d written to %s" % (len(rows), args.phi, args.out))
    else:
        sys.stdout.write(text)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddivfem",
        description="Mixed plate bending with double-divergence conforming tensor elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="algebraic checks of the element and its maps")
    p.add_argument("--tol", type=float, default=1e-12, help="deviation tolerance (default 1e-12)")
    p.add_argument(
        "--corrupt-phi",
        type=int,
        default=None,
        metavar="I",
        help="damage shape tensor I before checking (negative control)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("interp-test", help="interpolation error and commuting residual table")
    p.add_argument("--levels", type=int, default=4, help="finest refinement level (default 4)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random field (default 0)")
    p.add_argument("--degree", type=int, default=3, help="field polynomial degree (default 3)")
    p.add_argument("--quad", type=int, default=6, help="quadrature order (default 6)")
    p.add_argument(
        "--commuting-tol",
        type=float,
        default=1e-9,
        help="relative bound on the commuting residual (default 1e-9)",
    )
    p.set_defaults(func=cmd_interp_test)

    p = sub.add_parser("solve", help="solve one benchmark at one level")
    p.add_argument("--problem", required=True, choices=("ex1", "ex2"))
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mesh-out", metavar="P", help="write the mesh as plain text")
    p.add_argument("--solution-out", metavar="P", help="write solution coefficients as JSON")
    p.add_argument("--rtol", type=float, default=1e-10, help="solver residual bound (default 1e-10)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="error table over a level range")
    p.add_argument("--problem", required=True, choices=("ex1", "ex2"))
    p.add_argument("--levels", type=int, default=5, help="finest refinement level (default 5)")
    p.add_argument("--start-level", type=int, default=0, help="coarsest level (default 0)")
    p.add_argument("--out", metavar="P", help="CSV path; a .json summary is written next to it")
    p.add_argument("--rtol", type=float, default=1e-10, help="solver residual bound (default 1e-10)")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("sample-basis", help="grid samples of one reference shape tensor")
    p.add_argument("--phi", type=int, required=True, metavar="I", help="shape tensor index, 1..20")
    p.add_argument("--grid", type=int, default=25, metavar="S", help="samples per axis (default 25)")
    p.add_argument("--out", metavar="P", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_sample_basis)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
