"""Command line entry points, exercised in process through main(), and once in a fresh process."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import ddivfem
from cellspec import as_scipy
from ddivfem.cli import main
from ddivfem.mesh import import_text
from ddivfem.space import Csr, DofMap


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "8 of 8 checks passed" in out
    assert out.count("PASS") == 8
    assert "FAIL" not in out


def test_verify_catches_a_corrupted_shape_tensor(capsys):
    # negative control: perturb one basis tensor and the dof matrix, the
    # div div images, and unisolvency must all report it
    assert main(["verify", "--corrupt-phi", "7"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "7" in out
    assert "8 of 8" not in out


def test_verify_reports_a_wrong_dof_count_on_its_own(capsys, monkeypatch):
    # a dof map of the three-cell L-shape with one dof too many fails the
    # dof count formula, and only that check: the other map checks still run
    init = DofMap.__init__

    def off_by_one(self, mesh):
        init(self, mesh)
        if mesh.num_cells == 3:
            self.ndofs += 1
            P = as_scipy(self.P)
            P = sp.hstack([P, sp.csr_matrix((P.shape[0], 1))], format="csr")
            self.P = Csr(P.indptr, P.indices, P.data, P.shape)

    monkeypatch.setattr(DofMap, "__init__", off_by_one)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    maps = out[out.index("element maps") :].splitlines()[1:5]
    assert [line.split()[0] for line in maps] == ["PASS", "PASS", "PASS", "FAIL"]
    assert "dof count formula" in maps[3] and "3 cells: 53 vs 52" in maps[3]
    assert "7 of 8 checks passed" in out


def test_sample_basis_stdout(capsys):
    assert main(["sample-basis", "--phi", "1", "--grid", "5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,y,Mxx,Mxy,Myy,divM_x,divM_y,divdivM"
    assert len(lines) == 1 + 25
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # first shape tensor: div div M = 1.5 y on the reference square
    assert np.array_equal(data[:, 7], 1.5 * data[:, 1])
    assert data[:, 0].min() == -1.0 and data[:, 0].max() == 1.0


def test_sample_basis_rejects_bad_index(tmp_path):
    with pytest.raises(SystemExit):
        main(["sample-basis", "--phi", "21"])
    with pytest.raises(SystemExit):
        main(["sample-basis", "--phi", "0", "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["interp-test", "--levels", "-1"], "--levels"),
        (["interp-test", "--quad", "17"], "--quad"),
        (["interp-test", "--quad", "0"], "--quad"),
        (["solve", "--problem", "ex1", "--level", "-1"], "--level"),
        (["convergence", "--problem", "ex2", "--start-level", "-1"], "--start-level"),
        (["interp-test", "--degree", "-1"], "--degree"),
        (["solve", "--problem", "ex1", "--level", "1", "--rtol", "-1"], "--rtol"),
        (["solve", "--problem", "ex1", "--level", "1", "--rtol", "nan"], "--rtol"),
        (["convergence", "--problem", "ex1", "--levels", "1", "--rtol", "0"], "--rtol"),
    ],
    ids=[
        "levels", "quad-17", "quad-0", "solve-level", "start-level", "degree",
        "solve-rtol-negative", "solve-rtol-nan", "convergence-rtol-zero",
    ],
)
def test_invalid_level_or_quadrature_order_names_the_flag(argv, flag):
    with pytest.raises(SystemExit, match="^%s must be" % flag):
        main(argv)


def test_interp_test_runs(capsys):
    assert main(["interp-test", "--levels", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "final order" in out


@pytest.mark.parametrize("problem, cells", [("ex1", 4), ("ex2", 12)], ids=["ex1", "ex2"])
def test_solve_writes_artifacts(tmp_path, capsys, problem, cells):
    # ex1 has no constraint rows, ex2 has Neumann rows and multipliers
    mesh_path = tmp_path / "mesh.txt"
    sol_path = tmp_path / "solution.json"
    args = [
        "solve",
        "--problem",
        problem,
        "--level",
        "1",
        "--mesh-out",
        str(mesh_path),
        "--solution-out",
        str(sol_path),
    ]
    rc = main(args)
    assert rc == 0
    out = capsys.readouterr().out
    assert "cells" in out and "residual" in out and "multiplier system" in out

    mesh = import_text(mesh_path)
    assert mesh.num_cells == cells

    payload = json.loads(sol_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["problem"] == problem
    assert payload["solver"]["path"] == "hybrid"
    assert payload["moment_balance"] < 1e-9
    assert len(payload["moment_coefficients"]) == payload["ndofs"]
    assert len(payload["deflection_coefficients"]) == mesh.num_cells
    assert (len(payload["multipliers"]) > 0) == (problem == "ex2")
    assert payload["errors"]["u"] > 0.0

    # determinism: a rerun reproduces both artifacts byte for byte
    first_mesh, first_sol = mesh_path.read_bytes(), sol_path.read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert mesh_path.read_bytes() == first_mesh
    assert sol_path.read_bytes() == first_sol


def test_solve_reports_missing_errors_as_dashes(capsys):
    # the singular benchmark has no square integrable div div / div errors
    assert main(["solve", "--problem", "ex2", "--level", "0"]) == 0
    out = capsys.readouterr().out
    assert "divdiv -" in out
    assert out.strip().endswith("div -")


@pytest.mark.parametrize(
    "problem, level, line",
    [
        ("ex1", "1", "n 17 in 1 patch(es) and 0 block level(s) above them, root front 17,"),
        ("ex2", "0", "n 39 in 1 patch(es) and 1 block level(s) above them, root front 14,"),
    ],
    ids=["ex1-1", "ex2-0"],
)
def test_solve_reports_the_root_front(capsys, problem, level, line):
    # ex1 level 1 is one patch, which is the root; the three cells of ex2
    # level 0 meet at no interior vertex, so a pair of them is the one
    # block of level 1, and the root joins it to the third cell
    assert main(["solve", "--problem", problem, "--level", level]) == 0
    out = capsys.readouterr().out
    assert "multiplier system " + line in out
    assert "min pivot/diagonal -" not in out


@pytest.mark.parametrize(
    "level, line",
    [
        ("3", "n 497 in 16 patch(es) and 2 block level(s) above them, root front 77,"),
        ("4", "n 2145 in 64 patch(es) and 3 block level(s) above them, root front 157,"),
    ],
    ids=["ex1-3", "ex1-4"],
)
def test_solve_reports_the_levels_up_to_the_root(capsys, level, line):
    # ex1 is one square of 2^l x 2^l cells: the top block of the lattice
    # holds every row and is the root
    assert main(["solve", "--problem", "ex1", "--level", level]) == 0
    out = capsys.readouterr().out
    assert "multiplier system " + line in out


def test_convergence_writes_csv_and_json(tmp_path, capsys):
    out_csv = tmp_path / "conv.csv"
    args = [
        "convergence",
        "--problem",
        "ex1",
        "--levels",
        "2",
        "--start-level",
        "1",
        "--out",
        str(out_csv),
    ]
    # orders have not settled after one refinement, so the band gate fails
    # honestly and the exit code says so; artifacts are written regardless
    assert main(args) == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("level,nelem,h,err_u")
    assert len(lines) == 3

    summary = json.loads((tmp_path / "conv.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["config"]["problem"] == "ex1"
    assert summary["config"]["levels"] == 2
    assert summary["all_pass"] is False

    # determinism: a rerun reproduces both artifacts byte for byte
    first_csv = out_csv.read_bytes()
    first_json = (tmp_path / "conv.json").read_bytes()
    assert main(args) == 1
    capsys.readouterr()
    assert out_csv.read_bytes() == first_csv
    assert (tmp_path / "conv.json").read_bytes() == first_json


def test_convergence_band_verdict_lines(tmp_path, capsys):
    # by the fourth refinement all four orders sit inside their bands
    assert main(["convergence", "--problem", "ex1", "--levels", "4", "--start-level", "3"]) == 0
    out = capsys.readouterr().out
    for key in ("u", "M", "ddiv", "div"):
        assert "band %s" % key in out
    assert "FAIL" not in out


def test_unwritable_output_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "convergence",
                "--problem",
                "ex1",
                "--levels",
                "1",
                "--start-level",
                "1",
                "--out",
                str(tmp_path / "no" / "such" / "dir.csv"),
            ]
        )
    assert "cannot write" in str(exc.value)


#: a solve from the command line, a convergence study and an interpolation
#: study, then the scipy modules loaded
NO_SCIPY_RUN = """
import sys
import numpy as np
from ddivfem.cli import main
from ddivfem import TensorField, convergence_study, interpolation_error_study
assert main(["solve", "--problem", "ex2", "--level", "2"]) == 0
convergence_study("ex1", levels=2, start=1)
interpolation_error_study(TensorField.random_poly(np.random.default_rng(0), 3), range(3))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_a_run_loads_no_scipy(tmp_path):
    # the library runs on numpy alone; scipy is the tests' oracle only, so
    # a fresh process, importing this checkout's ddivfem, must never load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddivfem.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
