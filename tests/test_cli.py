import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skcone import cli
from skcone import geometry as geo
from skcone import projective as proj
from skcone.cli import main
from skcone.expr import max_var_index, parse_prepotential


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_echoes_ast(capsys):
    code, out, err = run_cli(capsys, "parse", "--expr", "i*(z0^2 + z1^2)")
    assert code == 0
    doc = json.loads(out)
    assert doc["expr"] == "i*(z0^2 + z1^2)"
    assert doc["n_vars"] == 2
    assert doc["homogeneity"]["euler_residual"] < 1e-12


@pytest.mark.parametrize("text, top", [
    ("z{12}*z1/z0", 12),
    ("z1/(z0 + z{12})", 12),
    ("-(z3^2)/z0", 3),
    ("i*2", -1),
])
def test_max_var_index(text, top):
    assert max_var_index(parse_prepotential(text, 4096).root) == top


def test_parse_infers_nvars_from_the_highest_index(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "z1*z2/z{12}")
    assert code == 0
    assert json.loads(out)["n_vars"] == 13


def test_parse_variable_free_expression_exit_2(capsys):
    code, out, err = run_cli(capsys, "parse", "--expr", "i*2")
    assert code == 2
    assert out == ""
    assert "n_vars must be >= 1" in err


def test_parse_syntax_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "parse", "--expr", "z0^^2")
    assert code == 2
    assert out == ""
    assert "offset 3" in err


def test_parse_reports_nonhomogeneous(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "z0^3")
    assert code == 0
    assert json.loads(out)["homogeneity"]["euler_residual"] > 0.1


# ---------------------------------------------------------------------------
# quartic
# ---------------------------------------------------------------------------


def test_quartic_case_g(capsys):
    code, out, _ = run_cli(capsys, "quartic", "--case", "G", "--coeffs", "1,0,0,1")
    assert code == 0
    assert out.strip() == "1296"


def test_quartic_case_a(capsys):
    code, out, _ = run_cli(capsys, "quartic", "--case", "A", "--coeffs", "1,0")
    assert code == 0
    assert out.strip() == "4"


def test_quartic_complex_coeffs(capsys):
    coeffs = ",".join(["0"] * 20)
    code, out, _ = run_cli(capsys, "quartic", "--case", "E6", "--coeffs", coeffs)
    assert code == 0
    assert out.strip().startswith("0")


def test_quartic_bad_coeffs_exit_2(capsys):
    code, _, err = run_cli(capsys, "quartic", "--case", "G", "--coeffs", "1,spam,0,1")
    assert code == 2
    assert "error" in err


def test_quartic_wrong_dimension_exit_2(capsys):
    code, _, err = run_cli(capsys, "quartic", "--case", "G", "--coeffs", "1,0,0")
    assert code == 2


def test_quartic_real_case_rejects_complex(capsys):
    code, _, err = run_cli(capsys, "quartic", "--case", "G", "--coeffs", "1,0,0,1i")
    assert code == 2


# ---------------------------------------------------------------------------
# sphere / projective
# ---------------------------------------------------------------------------


def test_sphere_output(capsys):
    code, out, _ = run_cli(
        capsys, "sphere", "--expr", "z1*z2*z3/z0", "--point", "1,i,i,i"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == 1
    assert abs(doc["k"] - 0.5) < 1e-10
    u = np.array([complex(re, im) for re, im in doc["u"]])
    assert np.allclose(u, [0.5, 0.5j, 0.5j, 0.5j], atol=1e-12)


def test_sphere_inadmissible_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "sphere", "--expr", "z1*z2*z3/z0", "--point", "1,1,i,i"
    )
    assert code == 2


def _per_vector_projective(expr, n_vars, point):
    """The projective command's output, one projective_metric call per vector."""
    ast = parse_prepotential(expr, n_vars)
    u = np.array([complex(p.replace("i", "j")) for p in point.split(",")])
    xi = geo.to_real(u)
    basis = [proj.projective_metric(ast, u, e) for e in np.eye(2 * n_vars)]
    vertical = max(
        abs(proj.projective_metric(ast, u, xi)),
        abs(proj.projective_metric(ast, u, geo.complex_structure(n_vars) @ xi)),
    )
    return basis, vertical


def test_projective_output(capsys):
    code, out, _ = run_cli(
        capsys, "projective", "--expr", "i*(z0^2 + z1^2)", "--point", "1,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vertical_residual"] < 1e-12
    assert doc["gbar_on_real_frame_basis"][1] == pytest.approx(1.0)
    # One shared domain sample gives exactly the per-vector values.
    for expr, n_vars, point in (("i*(z0^2 + z1^2)", 2, "1,0"),
                                ("z1*z2*z3/z0", 4, "1,0.2+i,0.1+0.9i,i")):
        code, out, _ = run_cli(capsys, "projective", "--expr", expr, "--point", point)
        assert code == 0
        doc = json.loads(out)
        basis, vertical = _per_vector_projective(expr, n_vars, point)
        assert doc["gbar_on_real_frame_basis"] == basis
        assert doc["vertical_residual"] == vertical


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_config_file(tmp_path, capsys):
    config = {
        "prepotential": "i*(z0^2 + z1^2)",
        "n_vars": 2,
        "seed": 5,
        "sample_count": 3,
        "base_point": [[1.0, 0.3], [0.4, -0.6]],
        "sample_radius": 0.1,
        "checks": ["lemma1.g_xi_xi", "eq.ma.spread", "thm.affinesphere.gauss"],
    }
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--config", str(path), "--out", str(out_path)
    )
    assert code == 0
    assert out == ""  # report went to the file, stdout stays clean
    report = json.loads(out_path.read_text())
    assert report["summary"]["all_pass"] is True
    assert "checks passed" in err


def test_verify_inline_to_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--expr",
        "i*(z0^2 + z1^2)",
        "--point",
        "1,0.2i",
        "--samples",
        "2",
        "--seed",
        "11",
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["all_pass"] is True
    assert report["meta"]["conventions"]["h"] == "g - 2i*omega"


def test_verify_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"prepotential": "z0^^1", "n_vars": 1, "base_point": [[1, 0]]}))
    code, _, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2


def test_verify_missing_args_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--expr", "i*(z0^2 + z1^2)")
    assert code == 2
    assert "point" in err


def test_verify_failing_check_exit_1(tmp_path, capsys):
    # an explicitly requested inapplicable check is recorded as failed
    config = {
        "prepotential": "z1*z2*z3/z0",
        "n_vars": 4,
        "sample_count": 1,
        "base_point": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        "sample_radius": 0.0,
        "checks": ["fs.closed_form"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "verify", "--config", str(path))
    assert code == 1
    assert json.loads(out)["summary"]["all_pass"] is False


def test_shipped_configs_load():
    from skcone.verify import load_config

    for name in ("configs/fs.json", "configs/stu.json"):
        cfg = load_config(name)
        assert cfg.sample_count >= 1


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_import_builds_no_cached_table():
    """Constant tables are built on first use, so importing the CLI stays cheap."""
    code = (
        "import skcone.cli as c, skcone.homogeneous as h, skcone.projective as p, "
        "skcone.expr as e, skcone.geometry as g; "
        "tables = (h._form3_table, h._star_table, h._wedge_data, p.fs_prepotential, "
        "e._shuffles, e._zeros, e._unit, g._complex_structure_table, c._parser); "
        "assert [t.cache_info().currsize for t in tables] == [0] * 9"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

# An argparse error, help, valid queries and a command error, in one sequence.
MIXED_ARGV = [
    ["sphere", "--bogus"],
    ["--help"],
    ["sphere", "--expr", "z1*z2*z3/z0", "--point", "1,i,i,i"],
    ["quartic", "--case", "G", "--coeffs", "1,0,0,1"],
    ["quartic", "--case", "Q", "--coeffs", "1"],
    ["parse", "--help"],
    ["parse", "--expr", "z1*z2*z3/z0", "--seed", "3"],
    ["projective", "--expr", "i*(z0^2 + z1^2)", "--point", "1,0.2"],
    ["sphere", "--expr", "i*2", "--point", "1"],
    [],
    ["quartic", "--case", "A", "--coeffs", "1,2,3,4"],
]


def _run_all(capsys, argvs):
    return [run_cli(capsys, *argv) for argv in argvs]


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        codes = [code for code, _, _ in _run_all(capsys, MIXED_ARGV * 2)]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert codes == [2, 0, 0, 0, 2, 0, 0, 0, 2, 2, 0] * 2
    assert real() is not real()


def test_warm_parser_gives_the_bytes_of_a_fresh_one(monkeypatch, capsys):
    warm = _run_all(capsys, MIXED_ARGV)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
    fresh = _run_all(capsys, MIXED_ARGV)
    assert warm == fresh
    assert warm[1][1].startswith("usage: skcone") and "invalid choice" in warm[4][2]


def test_inferred_nvars_parses_the_expression_once(monkeypatch, capsys):
    parses = []
    real = cli.parse_prepotential

    def counting(text, n_vars):
        parses.append(n_vars)
        return real(text, n_vars)

    monkeypatch.setattr(cli, "parse_prepotential", counting)
    code, _, _ = run_cli(capsys, "sphere", "--expr", "z1*z2*z3/z0", "--point", "1,i,i,i")
    assert code == 0 and parses == [4096]
    code, _, _ = run_cli(capsys, "sphere", "--expr", "z1*z2*z3/z0", "--nvars", "4", "--point", "1,i,i,i")
    assert code == 0 and parses == [4096, 4]
