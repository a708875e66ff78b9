"""Self-tests of the benchmark's output checks: each check passes on a
correct output and fails once that output is corrupted.

    python3 -m pytest perfbench/selftest_checks.py -q

The outputs are built with numpy alone, so these tests need no symcone.
"""

import copy
import json

import numpy as np
import pytest

import checks

SHAPE = 4.0


def wishart_draws(n, seed, scale=1.0, r=3):
    """symr:r Wishart draws with integer 2p: sums of 2p outer products of
    N(0, 1/2) vectors, mean p/scale * e."""
    g = np.random.default_rng(seed).normal(0.0, np.sqrt(0.5), size=(n, int(2 * SHAPE), r))
    mats = np.einsum("nki,nkj->nij", g, g) / scale
    return checks.from_mats("symr", r, mats)


def experiment_report(x, y, m, decision, p_value, mean_terms):
    """A report as the harness writes it, computed with the checks' helpers."""
    u, comp = checks.split("symr", 3, x, y)
    v = x + y
    u_eigs = checks.eigvals("symr", 3, u)
    return {
        "algebra": "symr:3",
        "level": 0.05,
        "p_value": p_value,
        "decision": decision,
        "resampled": 0,
        "statistic": checks.dcor(u[:m], v[:m]),
        "domain_check": {
            "min_u_eigenvalue": float(u_eigs.min()),
            "max_u_eigenvalue": float(u_eigs.max()),
            "max_complement_residual": float(np.abs(u + comp - checks.unit_coords("symr", 3)).max()),
        },
        "mean_check": {
            "expected": list(checks.wishart_mean("symr", 3, mean_terms)),
            "observed": list(v.mean(axis=0)),
        },
    }


@pytest.fixture(scope="module")
def forward():
    x, y = wishart_draws(400, 1), wishart_draws(400, 2)
    terms = ((SHAPE, 1.0), (SHAPE, 1.0))
    return x, y, terms, experiment_report(x, y, 200, "non-reject", 0.5, terms)


def run_forward(forward, report):
    x, y, terms, _ = forward
    return checks.check_experiment(report, x, y, 200, 0, terms, expect_reject=False)


def test_experiment_check_passes(forward):
    assert run_forward(forward, forward[3]) == []


def test_flipped_decision_fails(forward):
    report = dict(forward[3], decision="reject", p_value=0.01)
    assert run_forward(forward, report)
    x, y, terms, good = forward
    assert checks.check_experiment(good, x, y, 200, 0, terms, expect_reject=True)


def test_changed_statistic_fails(forward):
    report = dict(forward[3], statistic=forward[3]["statistic"] * (1.0 + 1e-6))
    assert run_forward(forward, report)


def test_changed_domain_and_mean_fail(forward):
    report = copy.deepcopy(forward[3])
    report["domain_check"]["max_complement_residual"] = 1e-8
    assert run_forward(forward, report)
    report = copy.deepcopy(forward[3])
    report["mean_check"]["observed"][0] += 1e-6
    assert run_forward(forward, report)
    report = copy.deepcopy(forward[3])
    report["resampled"] = 3
    assert run_forward(forward, report)


def test_wrong_mean_scale_fails(forward):
    x, y, _, report = forward
    terms = ((SHAPE, 1.0), (SHAPE, 3.0))
    assert checks.check_experiment(report, x, y, 200, 0, terms, expect_reject=False)


def sample_doc(coords):
    return {
        "format": "symcone-samples",
        "algebra": {"kind": "symr", "r_or_n": 3},
        "p": SHAPE,
        "scale": [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        "seed": 0,
        "stream": 0,
        "count": len(coords),
        "samples": [[float(c) for c in row] for row in coords],
    }


def test_sample_check_passes_and_draw_out_of_cone_fails():
    coords = wishart_draws(2000, 3)
    assert checks.check_sample_doc(sample_doc(coords), 2000, SHAPE, 1.0) == []
    pushed = coords.copy()
    pushed[17] -= 2.0 * checks.eigvals("symr", 3, pushed[17:18])[0, -1] * checks.unit_coords("symr", 3)
    assert checks.check_sample_doc(sample_doc(pushed), 2000, SHAPE, 1.0)


def test_sample_mean_and_count_fail():
    coords = wishart_draws(2000, 4)
    assert checks.check_sample_doc(sample_doc(coords * 1.1), 2000, SHAPE, 1.0)
    assert checks.check_sample_doc(sample_doc(coords[:-1]), 2000, SHAPE, 1.0)


def test_json_reload_detects_a_changed_byte():
    text = json.dumps(sample_doc(wishart_draws(50, 5))) + "\n"
    doc, fails = checks.json_reload(text)
    assert fails == [] and doc["count"] == 50
    first = repr(doc["samples"][0][0])
    _, fails = checks.json_reload(text.replace(first, first + "0", 1))
    assert fails


def test_csv_reload_detects_a_changed_byte():
    coords = wishart_draws(50, 6)
    lines = ["# algebra=symr:3", "# p=4.0", "# scale=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]",
             "# seed=0", "# stream=0", "# count=50", ",".join(f"c{k}" for k in range(6))]
    lines += [",".join(repr(float(c)) for c in row) for row in coords]
    text = "\n".join(lines) + "\n"
    doc, fails = checks.csv_reload(text)
    assert fails == [] and np.array_equal(doc["samples"], coords)
    first = repr(float(coords[0, 0]))
    _, fails = checks.csv_reload(text.replace(first, first + "0", 1))
    assert fails


@pytest.mark.parametrize("defect", [0.0, 0.1])
def test_perturbed_residual_fails(defect):
    x, y = wishart_draws(300, 7), wishart_draws(300, 8)
    e = checks.unit_coords("symr", 3)
    residuals = checks.olkin_baker_residuals(x, y, -1.0 * e, 1.0, 2.0, 0.0, defect)
    report = {"equation": "olkin-baker", "max_residual": float(residuals.max()),
              "mean_residual": float(residuals.mean())}
    assert checks.check_recomputed(report, residuals) == []
    assert checks.check_recomputed(dict(report, max_residual=report["max_residual"] + 1e-6), residuals)
    assert checks.check_recomputed(dict(report, mean_residual=report["mean_residual"] + 1e-6), residuals)
    if defect:
        assert checks.check_bound("defect", report["max_residual"], lower=checks.DEFECT_MIN) == []
    else:
        assert checks.check_bound("family", report["max_residual"], upper=checks.RESIDUAL_TOL) == []
        assert checks.check_bound("family", report["max_residual"] + 1e-9, upper=checks.RESIDUAL_TOL)
