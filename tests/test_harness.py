import json

import jsonschema
import numpy as np
import pytest

from _utils import random_cone_element, rel_err
from symcone import cli
from symcone.algebra import (
    Algebra,
    Element,
    _ldl_pivots,
    apply,
    eigvals_batch,
    p_map,
    sqrt_in_cone,
    unit,
)
from symcone.errors import NotInCone
from symcone.geometry import ConeElement, in_domain_D
from symcone.harness import (
    FactorizationReport,
    density_factorization_check,
    forward_experiment,
    negative_experiment,
    relative_scale_gap,
    run_repetitions,
    split,
    split_batch,
)
from symcone.wishart import WishartParams, sample

SYM1 = Algebra.sym_real(1)
SYM2 = Algebra.sym_real(2)
SYM3 = Algebra.sym_real(3)
HERM3 = Algebra.herm_complex(3)


def cone_unit(algebra, scale=1.0):
    return ConeElement.certify(scale * unit(algebra))


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_equal_inputs_give_half_unit(algebra, rng):
    x = ConeElement.certify(random_cone_element(algebra, rng, ridge=0.1))
    pair = split(x, x)
    np.testing.assert_allclose(pair.u.coords, 0.5 * unit(algebra).coords, atol=1e-12)
    np.testing.assert_allclose(pair.v.coords, 2.0 * x.coords, atol=1e-12)


def test_split_scalar_case():
    pair = split(Element(SYM1, [1.0]), Element(SYM1, [3.0]))
    assert pair.v.coords[0] == pytest.approx(4.0)
    assert pair.u.coords[0] == pytest.approx(0.25)


def test_split_reconstruction(algebra, rng):
    # P(v^(1/2)) u recovers x
    for _ in range(100 if algebra.dim <= 6 else 25):
        x = random_cone_element(algebra, rng, ridge=1e-3)
        y = random_cone_element(algebra, rng, ridge=1e-3)
        pair = split(x, y)
        back = apply(p_map(sqrt_in_cone(pair.v.element)), pair.u)
        assert rel_err(back.coords, x.coords) < 1e-10
        assert in_domain_D(pair.u)


def test_split_margin_guard():
    e = cone_unit(SYM3)
    with pytest.raises(NotInCone, match="margin"):
        split(e, e, margin=0.9)


def test_split_batch_matches_single(algebra, rng):
    xs = [random_cone_element(algebra, rng, ridge=0.05) for _ in range(20)]
    ys = [random_cone_element(algebra, rng, ridge=0.05) for _ in range(20)]
    v, u, u_comp = split_batch(
        algebra,
        np.stack([x.coords for x in xs]),
        np.stack([y.coords for y in ys]),
    )
    e = unit(algebra).coords
    for i in range(20):
        pair = split(xs[i], ys[i])
        np.testing.assert_allclose(u[i], pair.u.coords, atol=1e-11)
        np.testing.assert_allclose(v[i], pair.v.coords, atol=1e-12)
        np.testing.assert_allclose(u[i] + u_comp[i], e, atol=1e-12)


def test_split_complementarity_large_batch():
    params = WishartParams.isotropic(SYM3, 4.0)
    x = sample(params, 5000, seed=0).coords
    y = sample(params, 5000, seed=1).coords
    v, u, u_comp = split_batch(SYM3, x, y)
    assert np.abs(u + u_comp - unit(SYM3).coords[None, :]).max() < 1e-10
    u_eigs = eigvals_batch(SYM3, u)
    assert u_eigs[:, 0].min() > 0.0 and u_eigs[:, -1].max() < 1.0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_forward_experiment_smoke():
    report = forward_experiment(
        3.0, 3.0, cone_unit(SYM2), n=1000, seed=0, permutations=99, max_stat_samples=600
    )
    assert report.experiment == "forward"
    assert report.decision == "non-reject"
    assert 0.0 <= report.p_value <= 1.0
    assert report.domain_check["min_u_eigenvalue"] > 0.0
    assert report.domain_check["max_complement_residual"] < 1e-10
    assert report.mean_check["max_abs_z"] < 5.0
    assert report.resampled == 0


def test_forward_experiment_is_deterministic():
    kwargs = dict(n=1000, seed=3, permutations=60, max_stat_samples=400)
    r1 = forward_experiment(3.0, 3.0, cone_unit(SYM2), **kwargs)
    r2 = forward_experiment(3.0, 3.0, cone_unit(SYM2), **kwargs)
    assert r1.to_json() == r2.to_json()


def test_forward_experiment_is_scale_free():
    # a = 4^k e: the draws scale by exactly 4^-k and u not at all, and the
    # draws stay finite normal floats up to |k| = 500 (a overflows at 512)
    def run(k):
        a = ConeElement.certify(4.0**k * unit(SYM3))
        return forward_experiment(
            4.0, 4.0, a, n=1000, seed=3, permutations=19, max_stat_samples=300
        )

    base = run(0)
    for k in (-500, -300, -5, 5, 300, 500):
        report = run(k)
        for key in ("decision", "p_value", "statistic", "resampled", "domain_check"):
            assert getattr(report, key) == getattr(base, key), (k, key)
        assert report.mean_check["max_abs_z"] == base.mean_check["max_abs_z"], k
        for key in ("expected", "observed", "sigma"):
            assert report.mean_check[key] == [4.0**-k * c for c in base.mean_check[key]], (k, key)


def test_forward_experiment_requires_enough_samples():
    with pytest.raises(ValueError, match="1000"):
        forward_experiment(3.0, 3.0, cone_unit(SYM2), n=100, seed=0)


def test_negative_experiment_rejects_scale_mismatch():
    report = negative_experiment(
        3.0, 3.0, cone_unit(SYM2), cone_unit(SYM2, 3.0),
        n=2000, seed=0, permutations=99, max_stat_samples=800,
    )
    assert report.experiment == "negative"
    assert report.decision == "reject"
    assert report.p_value == pytest.approx(1.0 / 100.0)


def test_experiment_diagonalises_v_once_and_never_u_comp(monkeypatch):
    from symcone import eigh
    from symcone.algebra import coords_to_mats

    a1, a2 = cone_unit(SYM2), cone_unit(SYM2, 3.0)
    kwargs = dict(n=1000, seed=2, permutations=5, max_stat_samples=200)
    x = sample(WishartParams(SYM2, 3.0, a1), 1000, 2, stream=0).coords
    y = sample(WishartParams(SYM2, 3.0, a2), 1000, 2, stream=1).coords
    v, _, u_comp = split_batch(SYM2, x, y)
    inputs = []
    original = eigh.jacobi_eigh_batch

    def counting(mats, *args, **kw):
        inputs.append(np.array(mats))
        return original(mats, *args, **kw)

    monkeypatch.setattr(eigh, "jacobi_eigh_batch", counting)
    report = negative_experiment(3.0, 3.0, a1, a2, **kwargs)
    monkeypatch.undo()
    assert report.resampled == 0  # so the final v is x + y of streams 0 and 1

    def diagonalisations(coords):
        target = coords_to_mats(SYM2, coords)
        return sum(m.shape == target.shape and np.array_equal(m, target) for m in inputs)

    assert diagonalisations(v) == 1
    assert diagonalisations(u_comp) == 0
    assert report.domain_check["min_complement_eigenvalue"] == pytest.approx(
        eigvals_batch(SYM2, u_comp)[:, 0].min(), abs=1e-12
    )


def test_negative_experiment_gap_precondition():
    with pytest.raises(ValueError, match="gap"):
        negative_experiment(3.0, 3.0, cone_unit(SYM2), cone_unit(SYM2), n=2000, seed=0)
    with pytest.raises(ValueError, match="gap"):
        negative_experiment(
            3.0, 3.0, cone_unit(SYM2), cone_unit(SYM2, 1.2), n=2000, seed=0
        )


def test_forward_experiment_scalar_reduction():
    # rank one is the classical gamma sum/ratio setting
    report = forward_experiment(
        2.0, 3.0, cone_unit(SYM1), n=2000, seed=4, permutations=99, max_stat_samples=800
    )
    assert report.decision == "non-reject"
    expected = report.mean_check["expected"][0]
    assert expected == pytest.approx(5.0)  # (p1 + p2) / rate


def test_negative_experiment_scalar_reduction():
    # Gamma(2, rate 1) against Gamma(2, rate 4)
    report = negative_experiment(
        2.0, 2.0, cone_unit(SYM1), cone_unit(SYM1, 4.0),
        n=2000, seed=4, permutations=99, max_stat_samples=800,
    )
    assert report.decision == "reject"


def test_relative_scale_gap_values():
    assert relative_scale_gap(cone_unit(SYM2), cone_unit(SYM2, 3.0)) == pytest.approx(2.0)
    assert relative_scale_gap(cone_unit(SYM2), cone_unit(SYM2)) == pytest.approx(0.0)


def test_resampling_path_is_exercised_and_counted():
    report = forward_experiment(
        3.0, 3.0, cone_unit(SYM2), n=1000, seed=1,
        permutations=60, max_stat_samples=300, margin=0.2,
    )
    assert report.resampled > 0


def test_run_repetitions_summary():
    summary = run_repetitions(
        forward_experiment,
        seeds=(0, 1, 2),
        p1=3.0, p2=3.0, a=cone_unit(SYM2),
        n=1000, permutations=60, max_stat_samples=300,
    )
    assert summary.n_seeds == 3
    assert summary.rejections + summary.non_rejections == 3
    assert len(summary.p_values) == 3
    assert summary.experiment == "forward"


def test_report_json_matches_published_schema():
    report = forward_experiment(
        3.0, 3.0, cone_unit(SYM2), n=1000, seed=0, permutations=60, max_stat_samples=300
    )
    schema = json.loads(cli.schema_text("verify-lukacs"))
    jsonschema.validate(json.loads(report.to_json()), schema)


# ---------------------------------------------------------------------------
# density factorization
# ---------------------------------------------------------------------------

def _grid(params, count, seed):
    batch = sample(params, count, seed)
    return [Element(params.algebra, row) for row in batch.coords]


def test_factorization_recovers_parameters_sym2():
    a = cone_unit(SYM2)
    params = WishartParams(SYM2, 3.0, a)
    report = density_factorization_check(3.0, a, _grid(params, 200, seed=8))
    assert isinstance(report, FactorizationReport)
    assert report.expected_k == pytest.approx(1.5)
    assert report.k_error < 1e-8
    assert report.lambda_error < 1e-8
    assert report.max_residual < 1e-8


def test_factorization_scalar_exponential():
    a = cone_unit(SYM1)
    params = WishartParams(SYM1, 1.0, a)
    report = density_factorization_check(1.0, a, _grid(params, 50, seed=2))
    assert report.k == pytest.approx(0.0, abs=1e-10)
    assert report.lambda_coords[0] == pytest.approx(-1.0, abs=1e-10)


def test_factorization_anisotropic_scale():
    c = unit(SYM2).coords.copy()
    c[0], c[2] = 2.0, -0.4
    a = ConeElement.certify(Element(SYM2, c))
    params = WishartParams(SYM2, 2.5, a)
    report = density_factorization_check(2.5, a, _grid(params, 300, seed=9))
    np.testing.assert_allclose(report.lambda_coords, -np.asarray(a.coords), atol=1e-8)


def test_factorization_factors_its_grid_once(monkeypatch):
    a = cone_unit(SYM2)
    grid = _grid(WishartParams(SYM2, 3.0, a), 200, seed=8)
    rows = []

    def counting(alg, coords):
        rows.append(len(coords))
        return _ldl_pivots(alg, coords)

    monkeypatch.setattr("symcone.algebra._ldl_pivots", counting)
    density_factorization_check(3.0, a, grid)
    # the scale's log det, then one factorisation of the grid and its open-cone
    # shift for the density, whose log det the regressor reuses
    assert rows == [1, 2 * 200]


def test_factorization_rejects_degenerate_grid():
    a = cone_unit(SYM2)
    grid = [unit(SYM2)] * 40
    with pytest.raises(ValueError, match="degenerate"):
        density_factorization_check(3.0, a, grid)


def test_factorization_rejects_points_off_cone():
    a = cone_unit(SYM2)
    with pytest.raises(ValueError, match="open cone"):
        density_factorization_check(3.0, a, [Element(SYM2, [1.0, -1.0, 0.0])])


def test_negative_experiment_diagonalises_each_array_once(eigh_calls):
    # the two scale certificates, the gap's relative element, v and u: the
    # sampler's a^(-1/2) and the mean check's a^(-1) read the certificates
    a1, a2 = cone_unit(HERM3), cone_unit(HERM3, 3.0)
    negative_experiment(4.0, 4.0, a1, a2, n=1000, seed=0, permutations=5, max_stat_samples=50)
    assert eigh_calls == [1, 1, 1, 1000, 1000]
