import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from symcone import cli
from symcone.algebra import Algebra, Element, unit
from symcone.wishart import SampleBatch


def run_cli(argv, capsys):
    cmd = cli.parse(argv)
    code = cli.run(cmd)
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def validate(subcommand, text):
    jsonschema.validate(json.loads(text), json.loads(cli.schema_text(subcommand)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_valid_sample_command():
    cmd = cli.parse(["sample", "--algebra", "symr:2", "--p", "3", "--n", "1000", "--seed", "7"])
    assert cmd.subcommand == "sample"
    assert cmd.options.p == 3.0
    assert cmd.options.seed == 7


@pytest.mark.parametrize(
    "argv,quoted",
    [
        # the message cites the dim/r - 1 threshold
        pytest.param(
            ["sample", "--algebra", "symr:2", "--p", "0.2", "--n", "10", "--seed", "0"], "0.5",
            id="p-below-threshold",
        ),
        pytest.param(
            ["density", "--algebra", "symr:1", "--p", "inf", "--point", "[1.0]"], "got inf",
            id="p-inf",
        ),
        pytest.param(
            ["verify-lukacs", "--algebra", "symr:2", "--p1", "inf"], "got inf", id="p1-inf"
        ),
        pytest.param(
            ["check-funceq", "--algebra", "symr:2", "--equation", "cocycle", "--p2", "nan"],
            "got nan", id="p2-nan",
        ),
        pytest.param(
            ["verify-lukacs", "--algebra", "symr:3", "--n", "2000", "--level", "5"], "got 5.0",
            id="level-5",
        ),
        pytest.param(
            ["verify-negative", "--algebra", "symr:3", "--level", "0"], "got 0.0", id="level-0"
        ),
        pytest.param(
            ["check-funceq", "--algebra", "symr:2", "--equation", "cocycle", "--tol", "nan"],
            "got nan", id="tol-nan",
        ),
        pytest.param(
            ["check-funceq", "--algebra", "symr:2", "--equation", "cocycle", "--tol", "-1"],
            "got -1.0", id="tol-negative",
        ),
        pytest.param(
            ["sample", "--algebra", "symr:2", "--p", "3", "--n", "10", "--seed", "0",
             "--workers", "0"], "got 0", id="workers-0",
        ),
        pytest.param(
            ["check-funceq", "--algebra", "symr:2", "--equation", "cocycle", "--n-pairs", "0"],
            "got 0", id="n-pairs-0",
        ),
        pytest.param(
            ["verify-lukacs", "--algebra", "symr:2", "--permutations", "0"], "got 0",
            id="permutations-0",
        ),
        pytest.param(
            ["verify-negative", "--algebra", "symr:2", "--n", "999"], "got 999",
            id="verify-n-999",
        ),
    ],
)
def test_parse_rejects_out_of_range_shape(argv, quoted, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse(argv)
    assert exc.value.code == 2
    assert quoted in capsys.readouterr().err


def test_parse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.parse(["frobnicate", "--algebra", "symr:2"])
    assert exc.value.code == 2


def test_parse_rejects_malformed_algebra(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse(["algebra-info", "--algebra", "cube:3"])
    assert exc.value.code == 2
    assert "algebra spec" in capsys.readouterr().err


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        cli.parse(["algebra-info", "--algebra", "symr:2", "--bogus", "1"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_algebra_info_lorentz(capsys):
    code, out, _ = run_cli(["algebra-info", "--algebra", "lorentz:4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["rank"], doc["dim"], doc["peirce_degree"]) == (2, 5, 3)
    validate("algebra-info", out)


def test_laplace_zero_prints_one(capsys):
    code, out, _ = run_cli(
        ["laplace", "--algebra", "symr:2", "--p", "3", "--t", "zero"], capsys
    )
    assert code == 0
    assert out == "1.0"
    validate("laplace", out)


def test_laplace_out_of_region_fails_cleanly(capsys):
    code, out, err = run_cli(
        ["laplace", "--algebra", "symr:2", "--p", "3", "--t", "-1.0"], capsys
    )
    assert code == 1
    assert out == ""
    assert "cone" in err


def test_laplace_overflow_fails_cleanly():
    # a real process, so an uncaught exception would show as a traceback
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "symcone.cli", "laplace", "--algebra", "symr:2",
         "--p", "300", "--t", "-0.999999"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "log value" in proc.stderr and "Traceback" not in proc.stderr


def test_density_inline_point(capsys):
    code, out, _ = run_cli(
        ["density", "--algebra", "symr:1", "--p", "1", "--point", "[2.0]"], capsys
    )
    assert code == 0
    assert json.loads(out) == pytest.approx(-2.0)
    validate("density", out)


def test_density_outside_cone(capsys):
    code, out, _ = run_cli(
        ["density", "--algebra", "symr:2", "--p", "3", "--point", "[1.0,-1.0,0.0]"],
        capsys,
    )
    assert code == 0
    assert out == '"-inf"'
    validate("density", out)


def test_sample_json_and_reload(capsys, tmp_path):
    out_path = tmp_path / "batch.json"
    code, out, _ = run_cli(
        ["sample", "--algebra", "symr:2", "--p", "3", "--n", "50", "--seed", "9",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    validate("sample", out)
    again = SampleBatch.from_json_dict(json.loads(out_path.read_text()))
    assert len(again) == 50 and again.seed == 9


def test_sample_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "batch.csv"
    code, out, _ = run_cli(
        ["sample", "--algebra", "lorentz:3", "--p", "2", "--n", "20", "--seed", "4",
         "--format", "csv", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    again = SampleBatch.from_csv(out_path)
    assert len(again) == 20
    assert again.params.algebra == Algebra.lorentz(3)


def test_split_files(capsys, tmp_path):
    alg = Algebra.sym_real(2)
    x = Element(alg, [1.0, 1.0, 0.0])
    y = Element(alg, [3.0, 3.0, 0.0])
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(x.to_json())
    yp.write_text(y.to_json())
    code, out, _ = run_cli(
        ["split", "--algebra", "symr:2", "--x-file", str(xp), "--y-file", str(yp)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["v"]["coords"], [4.0, 4.0, 0.0])
    np.testing.assert_allclose(doc["u"]["coords"], [0.25, 0.25, 0.0], atol=1e-12)
    validate("split", out)


def test_scale_file_is_honored(capsys, tmp_path):
    alg = Algebra.sym_real(1)
    scale_path = tmp_path / "a.json"
    scale_path.write_text((4.0 * unit(alg)).to_json())
    code, out, _ = run_cli(
        ["density", "--algebra", "symr:1", "--p", "2", "--scale-file", str(scale_path),
         "--point", "[1.0]"],
        capsys,
    )
    assert code == 0
    # log f(1) = 2 log 4 - log Gamma(2) + (2-1) log 1 - 4
    assert json.loads(out) == pytest.approx(2 * np.log(4.0) - 4.0)


def test_missing_file_is_runtime_error(capsys):
    code, out, err = run_cli(
        ["density", "--algebra", "symr:1", "--p", "1", "--point-file", "/nonexistent.json"],
        capsys,
    )
    assert code == 1
    assert "density" in err


@pytest.mark.parametrize(
    "text,named",
    [
        ('{"coords": [1.0, 0.0, 1.0]}', "'algebra'"),
        ('{"algebra": {"r_or_n": 2}, "coords": [1.0, 0.0, 1.0]}', "'kind'"),
        ('{"algebra": {"kind": "symr", "r_or_n": 2}}', "'coords'"),
        ('{"algebra": "symr:2", "coords": [1.0, 0.0, 1.0]}', "malformed"),
        ('{"algebra": ', "JSON"),
    ],
    ids=["no-algebra", "no-kind", "no-coords", "algebra-not-object", "truncated-json"],
)
def test_malformed_element_file_is_runtime_error(text, named, capsys, tmp_path):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(unit(Algebra.sym_real(2)).to_json())
    code, out, err = run_cli(
        ["split", "--algebra", "symr:2", "--x-file", str(bad), "--y-file", str(good)], capsys
    )
    assert code == 1 and out == ""
    assert str(bad) in err and named in err
    assert "Traceback" not in err


def test_check_funceq_exit_codes(capsys):
    code, out, _ = run_cli(
        ["check-funceq", "--equation", "olkin-baker", "--algebra", "symr:2",
         "--family", "l=-1,c1=1,c2=2,k=0", "--n-pairs", "80", "--seed", "1"],
        capsys,
    )
    assert code == 0
    validate("check-funceq", out)
    code, out, _ = run_cli(
        ["check-funceq", "--equation", "log-quadratic", "--field", "trace",
         "--algebra", "symr:2", "--n-pairs", "40", "--seed", "1"],
        capsys,
    )
    assert code == 1  # trace violates the identity, residual above --tol


def test_check_funceq_wishart_dictionary(capsys):
    code, out, _ = run_cli(
        ["check-funceq", "--equation", "olkin-baker-wishart", "--algebra", "symr:2",
         "--p1", "2.5", "--p2", "3.0", "--n-pairs", "60", "--seed", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equation"] == "olkin-baker-wishart"
    assert doc["max_residual"] < 1e-10


def test_check_funceq_more_equations(capsys):
    for argv in (
        ["check-funceq", "--equation", "cocycle", "--algebra", "symr:2",
         "--n-pairs", "40", "--seed", "3"],
        ["check-funceq", "--equation", "homogeneity", "--field", "det-over-trace",
         "--algebra", "symr:2", "--n-pairs", "30", "--seed", "3"],
        ["check-funceq", "--equation", "pexider", "--algebra", "symr:2",
         "--family", "l=1,c1=1,c2=-2,k=0", "--n-pairs", "60", "--seed", "3",
         "--tol", "1e-8"],
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        validate("check-funceq", out)


def test_verify_lukacs_smoke(capsys):
    code, out, _ = run_cli(
        ["verify-lukacs", "--algebra", "symr:2", "--p1", "3", "--p2", "3",
         "--n", "1000", "--seed", "0", "--permutations", "60",
         "--max-stat-samples", "300"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "non-reject"
    validate("verify-lukacs", out)


def test_verify_negative_smoke(capsys):
    code, out, _ = run_cli(
        ["verify-negative", "--algebra", "symr:2", "--p1", "3", "--p2", "3",
         "--n", "1500", "--seed", "0", "--permutations", "60",
         "--max-stat-samples", "400", "--scale1", "1.0", "--scale2", "3.0"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "reject"
    validate("verify-negative", out)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_output_bytes_are_stable_across_runs_and_workers(capsys):
    argv = ["sample", "--algebra", "symr:3", "--p", "4", "--n", "6000", "--seed", "123"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    _, out3, _ = run_cli(argv + ["--workers", "4"], capsys)
    assert out1 == out2 == out3


def test_verify_output_bytes_stable(capsys):
    argv = ["verify-lukacs", "--algebra", "symr:2", "--p1", "3", "--p2", "3",
            "--n", "1000", "--seed", "5", "--permutations", "50",
            "--max-stat-samples", "200"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv + ["--workers", "3"], capsys)
    assert out1 == out2
