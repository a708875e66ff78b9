import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

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
    assert cmd.p == 3.0
    assert cmd.seed == 7


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
        # the Wishart dictionary's default shapes 3 sit below hermc:5's threshold 4
        pytest.param(
            ["check-funceq", "--equation", "olkin-baker-wishart", "--algebra", "hermc:5",
             "--n-pairs", "10"], "requires p1 > 4.0", id="wishart-p1-below-threshold",
        ),
        pytest.param(
            ["sample", "--algebra", "symr:2", "--p", "3", "--n", "2", "--seed", "0",
             "--scale", "nan"], "got nan", id="scale-nan",
        ),
        pytest.param(
            ["verify-negative", "--algebra", "symr:2", "--scale2", "inf"], "got inf",
            id="scale2-inf",
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
        pytest.param(
            ["verify-lukacs", "--algebra", "symr:2", "--n", "1000", "--permutations", "5",
             "--max-stat-samples", "0"], "got 0", id="max-stat-samples-0",
        ),
        pytest.param(
            ["verify-negative", "--algebra", "symr:2", "--max-stat-samples", "1"], "got 1",
            id="max-stat-samples-1",
        ),
        # the random streams' key limits: a seed below 2^64, a stream below 2^22
        pytest.param(
            ["sample", "--algebra", "symr:2", "--p", "3", "--n", "10", "--seed", "0",
             "--stream", "-1"], "got -1", id="stream-negative",
        ),
        pytest.param(
            ["sample", "--algebra", "symr:2", "--p", "3", "--n", "10", "--seed", "0",
             "--stream", "4194304"], "got 4194304", id="stream-2-22",
        ),
        pytest.param(
            ["sample", "--algebra", "symr:2", "--p", "3", "--n", "10",
             "--seed", "18446744073709551616"], "got 18446744073709551616", id="seed-2-64",
        ),
    ],
)
def test_parse_rejects_out_of_range_shape(argv, quoted, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert quoted in err
    # the subcommand's own usage line and error prefix, as for argparse's own errors
    assert err.startswith(f"usage: symcone {argv[0]} ")
    assert f"\nsymcone {argv[0]}: error: " in err


def test_check_funceq_checks_shapes_only_for_the_wishart_dictionary(capsys):
    # --p1 and --p2 keep their defaults of 3, below hermc:5's threshold 4
    code, out, err = run_cli(
        ["check-funceq", "--equation", "cocycle", "--algebra", "hermc:5", "--n-pairs", "10"],
        capsys,
    )
    assert code == 0 and err == ""
    validate("check-funceq", out)


@pytest.mark.parametrize("value", ["abc", "inf", "nan"])
def test_parse_rejects_malformed_laplace_t(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse(["laplace", "--algebra", "symr:2", "--p", "3", "--t", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--t" in err and repr(value) in err and "Traceback" not in err


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


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_path_is_one_output_line(target, tmp_path):
    out = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "symcone.cli", "algebra-info", "--algebra", "symr:2",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    # --out is written first, so its failure leaves stdout empty
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("symcone algebra-info: output: "), proc.stderr


def test_closed_stdout_pipe_is_one_output_line():
    # the reader leaves after 100 bytes, as `head -c 100` does; the JSON is ~230 kB
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "symcone.cli", "sample", "--algebra", "symr:3", "--p", "4",
         "--n", "2000", "--seed", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert head.startswith(b'{"format": "symcone-samples"')
    # no traceback, and no "Exception ignored" line from the exit-time flush
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("symcone sample: output: "), err


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


@pytest.mark.parametrize(
    "text",
    ['{"a": 1}', '"2.0"', "[1.0, \"x\"]", "[[1.0]]", "[2.0", ""],
    ids=["object", "string", "mixed-list", "nested-list", "truncated-json", "empty"],
)
def test_malformed_inline_point_is_runtime_error(text, capsys):
    code, out, err = run_cli(
        ["density", "--algebra", "symr:1", "--p", "1", "--point", text], capsys
    )
    assert code == 1 and out == ""
    assert "--point" in err and repr(text) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "family,token",
    [("l=0,c1=inf,c2=1,k=0", "c1=inf"), ("l=0,c1,c2=1,k=0", "c1")],
    ids=["non-finite", "no-value"],
)
def test_malformed_family_is_runtime_error(family, token, capsys):
    code, out, err = run_cli(
        ["check-funceq", "--equation", "olkin-baker", "--algebra", "symr:2",
         "--family", family, "--n-pairs", "20"],
        capsys,
    )
    assert code == 1 and out == ""
    assert "--family" in err and repr(token) in err and len(err.splitlines()) == 1
    assert "NaN" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,said",
    [
        # a = 1e-320 e carries the experiment's draws past the largest float;
        # draws near 1e200 no longer overflow the dcor test, which scales them
        (["verify-lukacs", "--algebra", "symr:2", "--n", "1000", "--permutations", "3",
          "--max-stat-samples", "50", "--scale", "1e-320"], "produced a draw outside the "
         "open cone at shape p=4.0 (non-finite entries)"),
        # lambda = 1e308 e overflows <lambda, x>, and the residual becomes NaN
        (["check-funceq", "--equation", "olkin-baker", "--algebra", "symr:2",
          "--n-pairs", "20", "--family", "l=1e308,c1=1,c2=1,k=0"], "NaN or an infinity"),
        # a = 1e-320 e: a^(-1/2) carries the draws past the largest float
        (["sample", "--algebra", "symr:2", "--p", "3", "--n", "2", "--seed", "0",
          "--scale", "1e-320"], "produced a draw outside the open cone at shape p=3.0 "
         "(non-finite entries)"),
    ],
    ids=["dcor-overflow", "residual-overflow", "draw-overflow"],
)
def test_non_finite_results_are_runtime_errors(argv, said):
    # a real process, so a leaked RuntimeWarning would reach its stderr
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "symcone.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"symcone {argv[0]}:"), proc.stderr
    assert said in lines[0], proc.stderr


@pytest.mark.parametrize("equation", ["cocycle", "log-quadratic"])
def test_check_funceq_field_choice_reaches_every_equation(equation, capsys):
    reports = {
        field: run_cli(
            ["check-funceq", "--equation", equation, "--algebra", "symr:2",
             "--field", field, "--n-pairs", "50"],
            capsys,
        )[1]
        for field in ("trace", "det-over-trace")
    }
    assert reports["trace"] != reports["det-over-trace"]


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


def test_log_quadratic_on_ill_conditioned_hermitian_points_passes(capsys):
    # P(y)x reaches condition numbers near 1e7 here; the LDL^H log det keeps the
    # residual near 1e-11, under the default --tol of 1e-10
    code, out, _ = run_cli(["check-funceq", "--equation", "log-quadratic", "--algebra",
                            "hermc:3", "--n-pairs", "2000", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] < 5e-11


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


def test_experiments_at_extreme_scales_print_finite_documents(capsys):
    # draws near 1e200 and 1e-165: the distances would overflow or underflow
    code, out, err = run_cli(
        ["verify-lukacs", "--algebra", "symr:2", "--n", "1000", "--permutations", "3",
         "--max-stat-samples", "50", "--scale", "1e-200"],
        capsys,
    )
    assert code == 0 and err == ""
    validate("verify-lukacs", out)
    assert json.loads(out)["statistic"] > 0.0
    code, out, err = run_cli(
        ["verify-negative", "--algebra", "symr:3", "--n", "1000", "--permutations", "19",
         "--max-stat-samples", "300", "--seed", "3", "--scale1", "1e165", "--scale2", "3e165"],
        capsys,
    )
    assert code == 0 and err == "", err
    doc = json.loads(out)
    assert doc["decision"] == "reject" and doc["statistic"] > 0.0
    assert min(doc["mean_check"]["sigma"][:3]) > 0.0 and doc["mean_check"]["max_abs_z"] > 1e-3


def test_shapes_near_the_threshold_sample_and_verify(capsys, tmp_path):
    # delta = p - 1 = 0.05: about 9% of the raw draws are singular to rounding
    out_path = tmp_path / "draws.json"
    code, _, err = run_cli(
        ["sample", "--algebra", "symr:3", "--p", "1.05", "--n", "20000", "--seed", "0",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and err == ""
    assert len(SampleBatch.from_json_dict(json.loads(out_path.read_text()))) == 20000
    code, out, err = run_cli(
        ["verify-lukacs", "--algebra", "symr:3", "--p1", "1.2", "--p2", "4", "--n", "10000",
         "--permutations", "19", "--seed", "0"],
        capsys,
    )
    assert code == 0 and err == ""
    validate("verify-lukacs", out)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_output_bytes_are_stable_across_runs_and_workers(capsys):
    # the real and the complex Hermitian rotation paths
    for spec in ("symr:3", "hermc:3"):
        argv = ["sample", "--algebra", spec, "--p", "4", "--n", "6000", "--seed", "123"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        _, out3, _ = run_cli(argv + ["--workers", "4"], capsys)
        assert out1 == out2 == out3, spec


# sha256 of the stdout bytes of the three sample commands of the benchmark at n = 500;
# a change to the sampler, its certificate or the encoders shows here
SAMPLE_DIGESTS = {
    ("hermc:3", "json"): "aaaadea6f67ffd110ca2ba1377c625244870f924ba110c81debdaf87d3a51bb7",
    ("symr:3", "csv"): "6ae91eb60d50ab30854fb5c722175a311de77aae44ec1bf3655065174e465db1",
    ("lorentz:4", "json"): "5e7393504a7ea3f49fc1d3fc12597cb5fd284e4e779fd403f569c6c47091c3ba",
}


@pytest.mark.parametrize("spec,fmt", list(SAMPLE_DIGESTS))
def test_sample_bytes_are_pinned(spec, fmt, capsys):
    argv = ["sample", "--algebra", spec, "--p", "4.0", "--n", "500", "--seed", "0",
            "--workers", "1", "--format", fmt]
    assert cli.run(cli.parse(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[spec, fmt]


def test_verify_output_bytes_stable(capsys):
    for argv in (
        ["verify-lukacs", "--algebra", "symr:2", "--p1", "3", "--p2", "3",
         "--n", "1000", "--seed", "5", "--permutations", "50",
         "--max-stat-samples", "200"],
        ["verify-negative", "--algebra", "hermc:2", "--p1", "3", "--p2", "3",
         "--n", "1000", "--seed", "5", "--permutations", "50",
         "--max-stat-samples", "200", "--scale1", "1.0", "--scale2", "3.0"],
    ):
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv + ["--workers", "3"], capsys)
        assert out1 == out2, argv[:3]


# ---------------------------------------------------------------------------
# fuzzing: every argument vector ends in exit 0, 1 or 2 with strict JSON
# ---------------------------------------------------------------------------

_WILD_NUMBER = st.one_of(
    st.sampled_from(["0", "-0.0", "5e-324", "1e-200", "1e200", "1e308", "-1e308", "1e999",
                     "inf", "-inf", "nan", "abc", ""]),
    st.floats().map(repr),
)
_WILD_COORD = st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e308, -1e308, 5e-324, np.inf, np.nan])
)
_WILD_ELEMENT = st.one_of(
    st.builds(
        lambda kind, size, coords: json.dumps(
            {"algebra": {"kind": kind, "r_or_n": size}, "coords": coords}
        ),
        st.sampled_from(["symr", "hermc", "lorentz", "cube"]), st.sampled_from([1, 2, 3, "two"]),
        st.lists(_WILD_COORD, max_size=5),
    ),
    st.sampled_from(['{"coords": [1.0]}', '{"algebra": ', "", "[]", "null"]),
)
_WILD_FAMILY = st.one_of(
    st.lists(st.tuples(st.sampled_from(["l", "c1", "c2", "k", "x", ""]), _WILD_NUMBER),
             max_size=5).map(lambda pairs: ",".join(f"{k}={v}" for k, v in pairs)),
    st.sampled_from(["l=0,c1,c2=1,k=0", ",,,", "l=1,c1=1,c2=1,k=0,k=1"]),
)
_WILD_POINT = st.one_of(
    st.lists(_WILD_COORD, max_size=5).map(json.dumps),
    st.sampled_from(["[1.0", "{}", "[[1.0]]", ""]),
)


def _mostly(plausible, wild):
    """Draws from ``wild`` about one time in ten, so that about half of the
    vectors get past parsing and reach the numerics."""
    return st.integers(0, 9).flatmap(lambda k: wild if k == 0 else plausible)


def _floats(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), _WILD_NUMBER)


@st.composite
def _argv(draw, subcommand, directory):
    spec = draw(_mostly(st.sampled_from(["symr:1", "symr:2", "hermc:2", "lorentz:3"]),
                        st.sampled_from(["symr:0", "cube:2", "hermc"])))
    argv = [subcommand, f"--algebra={spec}"]
    try:
        e = unit(Algebra.from_spec(spec))
    except ValueError:  # the vector fails at parsing; any element will do
        e = unit(Algebra.sym_real(2))
    element = st.floats(0.1, 10.0).map(lambda k: (k * e).to_json())

    def opt(name, values):
        argv.append(f"--{name}={draw(values)}")

    def element_file(name):
        path = Path(directory) / f"{name}.json"
        path.write_text(draw(_mostly(element, _WILD_ELEMENT)))
        argv.append(f"--{name}={path}")

    def scale(suffix=""):
        choice = draw(st.sampled_from(["none", "multiple", "file"]))
        if choice == "multiple":
            opt(f"scale{suffix}", _floats(0.1, 10.0))
        elif choice == "file":
            element_file(f"scale{suffix}-file")

    def maybe(name, values):
        if draw(st.booleans()):
            opt(name, values)

    if subcommand == "sample":
        opt("p", _floats(1.5, 8.0))
        opt("n", _mostly(st.integers(1, 50), st.integers(-1, 0)))
        opt("seed", _mostly(st.integers(0, 2**32), st.just(-1)))
        opt("workers", st.sampled_from([1, 2]))
        opt("format", st.sampled_from(["json", "csv"]))
        scale()
    elif subcommand == "density":
        opt("p", _floats(1.5, 8.0))
        scale()
        if draw(st.booleans()):
            point = st.floats(0.1, 10.0).map(lambda k: json.dumps((k * e).coords.tolist()))
            opt("point", _mostly(point, _WILD_POINT))
        else:
            element_file("point-file")
    elif subcommand == "laplace":
        opt("p", _floats(1.5, 8.0))
        scale()
        if draw(st.booleans()):
            opt("t", st.one_of(_floats(-0.5, 5.0), st.just("zero")))
        else:
            element_file("t-file")
    elif subcommand == "split":
        element_file("x-file")
        element_file("y-file")
    elif subcommand.startswith("verify-"):
        maybe("p1", _floats(1.5, 8.0))
        maybe("p2", _floats(1.5, 8.0))
        maybe("level", _floats(0.01, 0.99))
        opt("n", _mostly(st.just(1000), st.integers(990, 999)))
        opt("seed", _mostly(st.integers(0, 2**32), st.just(-1)))
        opt("permutations", _mostly(st.integers(1, 3), st.just(0)))
        opt("max-stat-samples", _mostly(st.integers(2, 40), st.integers(0, 1)))
        opt("workers", st.sampled_from([1, 2]))
        for suffix in ("",) if subcommand == "verify-lukacs" else ("1", "2"):
            scale(suffix)
    elif subcommand == "check-funceq":
        opt("equation", st.sampled_from(["olkin-baker", "olkin-baker-wishart", "log-quadratic",
                                         "cocycle", "homogeneity", "pexider"]))
        family = st.tuples(*[_floats(-2.0, 2.0)] * 4).map(
            lambda v: "l={},c1={},c2={},k={}".format(*v)
        )
        opt("family", _mostly(family, _WILD_FAMILY))
        opt("field", st.sampled_from(["logdet", "trace", "det-over-trace"]))
        maybe("p1", _floats(1.5, 8.0))
        maybe("p2", _floats(1.5, 8.0))
        maybe("tol", _floats(1e-12, 1.0))
        opt("n-pairs", _mostly(st.integers(1, 20), st.integers(-1, 0)))
        opt("seed", _mostly(st.integers(0, 2**32), st.just(-1)))
        scale()
    return argv


def _no_constant(name):
    raise AssertionError(f"stdout holds the non-JSON constant {name}")


@pytest.mark.parametrize("subcommand", list(cli.SCHEMAS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argument_vectors_keep_the_contract(subcommand, data):
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(_argv(subcommand, directory), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.run(cli.parse(argv))
            except SystemExit as exc:
                code = exc.code
    # a warning would reach a real process's stderr, so it counts as stderr here
    out = out.getvalue().strip()
    err = err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 2:
        # a document (exit 0, or 1 for a failed verification) comes with a silent
        # stderr; a runtime error comes with no document and one stderr line
        if out:
            assert err == ""
        else:
            assert code == 1 and len(err.splitlines()) == 1, err
            assert err.startswith(f"symcone {subcommand}:"), err
    if not out:
        return
    if "--format=csv" in argv:
        rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "c0"))]
        assert rows and all(np.isfinite(float(c)) for row in rows for c in row)
        return
    doc = json.loads(out, parse_constant=_no_constant)
    jsonschema.validate(doc, json.loads(cli.schema_text(subcommand)))
