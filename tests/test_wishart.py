import io
import json
import math

import numpy as np
import pytest
from scipy import stats

from _oracles import lorentz2_wishart_normalization, sym2_wishart_normalization
from _utils import random_element
from symcone import geometry
from symcone.algebra import (
    Algebra,
    Element,
    _log_det,
    coords_to_mats,
    eigenvalues,
    eigvals_batch,
    inv_sqrt_in_cone,
    inverse,
    p_map,
    quadratic_action,
    unit,
)
from symcone.errors import NotInCone, OutOfRegion, PoleError
from symcone.geometry import ConeElement
from symcone.wishart import (
    SampleBatch,
    WishartParams,
    laplace_transform,
    log_density,
    log_multivariate_gamma,
    mean,
    mean_scale_factor,
    multivariate_gamma,
    sample,
    shape_threshold,
)

SYM1 = Algebra.sym_real(1)
SYM2 = Algebra.sym_real(2)
SYM3 = Algebra.sym_real(3)


def isotropic(algebra, p, scale=1.0):
    return WishartParams.isotropic(algebra, p, scale)


# ---------------------------------------------------------------------------
# multivariate gamma
# ---------------------------------------------------------------------------

def test_gamma_rank_one_reduces_to_ordinary_gamma():
    assert multivariate_gamma(SYM1, 1.0) == pytest.approx(1.0)
    assert multivariate_gamma(SYM1, 5.0) == pytest.approx(math.factorial(4))


def test_gamma_pole_error():
    with pytest.raises(PoleError, match="0.5"):
        multivariate_gamma(SYM2, 0.5)
    with pytest.raises(PoleError):
        log_multivariate_gamma(SYM3, -1.0)


def test_gamma_overflow_quotes_the_log_value():
    log_value = log_multivariate_gamma(SYM3, 200.0)
    with pytest.raises(OverflowError, match=f"log value {log_value:.6g}"):
        multivariate_gamma(SYM3, 200.0)


def test_gamma_strictly_positive():
    for p in (0.6, 1.0, 2.5, 7.0):
        assert multivariate_gamma(SYM2, p) > 0.0


def test_shape_threshold_values():
    assert shape_threshold(SYM2) == pytest.approx(0.5)
    assert shape_threshold(SYM3) == pytest.approx(1.0)
    assert shape_threshold(Algebra.herm_complex(3)) == pytest.approx(2.0)
    assert shape_threshold(Algebra.lorentz(4)) == pytest.approx(1.5)


def test_params_validate_shape_and_scale():
    with pytest.raises(ValueError, match="dim/r - 1"):
        isotropic(SYM2, 0.5)
    other = ConeElement.certify(unit(SYM3))
    with pytest.raises(ValueError, match="different algebra"):
        WishartParams(SYM2, 3.0, other)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_log_density_indicator(rng):
    params = isotropic(SYM2, 3.0)
    outside = Element(SYM2, [1.0, -1.0, 0.0])
    assert log_density(params, outside) == float("-inf")


def test_log_density_scalar_case():
    # rank one with p = 1 is the unit-rate exponential distribution
    params = isotropic(SYM1, 1.0)
    assert log_density(params, Element(SYM1, [2.0])) == pytest.approx(-2.0)


def test_log_density_decomposition_structure(rng):
    # differences are exactly linear plus log-det: the regular-solution shape
    params = isotropic(SYM2, 3.5)
    q = SYM2.dim / SYM2.rank
    for _ in range(20):
        y1 = _cone_point(SYM2, rng)
        y2 = _cone_point(SYM2, rng)
        lhs = log_density(params, y1) - log_density(params, y2)
        ld1 = float(np.sum(np.log(eigenvalues(y1))))
        ld2 = float(np.sum(np.log(eigenvalues(y2))))
        rhs = -float((y1 - y2).coords @ unit(SYM2).coords) + (params.p - q) * (ld1 - ld2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _cone_point(algebra, rng):
    x = random_element(algebra, rng)
    from symcone.algebra import jordan_product

    return jordan_product(x, x) + 0.05 * unit(algebra)


def test_normalization_cubature_sym2():
    assert sym2_wishart_normalization(3.0) == pytest.approx(1.0, abs=1e-3)


def test_normalization_cubature_lorentz2():
    # certifies the dot-product correction in the Lorentz gamma function
    assert lorentz2_wishart_normalization(1.5) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Laplace transform and mean
# ---------------------------------------------------------------------------

def test_laplace_at_zero_is_exactly_one():
    params = isotropic(SYM2, 3.0)
    assert laplace_transform(params, 0.0 * unit(SYM2)) == 1.0


def test_laplace_isotropic_value():
    params = isotropic(SYM2, 3.0)
    assert laplace_transform(params, unit(SYM2)) == pytest.approx(1.0 / 64.0, rel=1e-12)


def test_laplace_out_of_region():
    params = isotropic(SYM2, 3.0)
    with pytest.raises(OutOfRegion):
        laplace_transform(params, -1.0 * unit(SYM2))


def test_laplace_monte_carlo_cross_check():
    params = isotropic(SYM2, 2.0)
    batch = sample(params, 20000, seed=99)
    for k in (0.1, 0.3, 1.0):
        t = k * unit(SYM2)
        mc = float(np.mean(np.exp(-batch.coords @ t.coords)))
        assert mc == pytest.approx(laplace_transform(params, t), rel=0.03)


def test_mean_examples():
    assert mean(isotropic(SYM1, 2.0)).coords[0] == pytest.approx(2.0)
    np.testing.assert_allclose(mean(isotropic(SYM2, 3.0)).coords, 3.0 * unit(SYM2).coords)


def test_mean_scale_factor_is_two_only_for_lorentz(algebra):
    expected = 2.0 if algebra.kind.value == "lorentz" else 1.0
    assert mean_scale_factor(algebra) == pytest.approx(expected)


def test_lorentz_mean_matches_laplace_derivative():
    # -d/dh log LT(h e) at 0 equals <e, E[Y]>
    alg = Algebra.lorentz(3)
    params = isotropic(alg, 2.0)
    h = 1e-6
    num = -(math.log(laplace_transform(params, h * unit(alg))) - 0.0) / h
    assert num == pytest.approx(float(mean(params).coords @ unit(alg).coords), rel=1e-4)


def test_empirical_mean(algebra):
    if algebra.dim > 9:
        pytest.skip("covered by the acceptance suite")
    p = shape_threshold(algebra) + 1.5
    params = isotropic(algebra, p)
    batch = sample(params, 30000, seed=31)
    expected = mean(params).coords
    se = batch.coords.std(axis=0, ddof=1) / math.sqrt(len(batch))
    assert np.abs(batch.coords.mean(axis=0) - expected).max() < 4.0 * se.max() + 1e-12


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

def test_sampler_is_bit_deterministic():
    params = isotropic(SYM3, 4.0)
    b1 = sample(params, 3000, seed=7, stream=2)
    b2 = sample(params, 3000, seed=7, stream=2)
    assert np.array_equal(b1.coords, b2.coords)
    b3 = sample(params, 3000, seed=8, stream=2)
    assert not np.array_equal(b1.coords, b3.coords)


def test_sampler_worker_count_does_not_change_output():
    params = isotropic(SYM2, 3.0)
    serial = sample(params, 9000, seed=5)
    threaded = sample(params, 9000, seed=5, workers=4)
    assert np.array_equal(serial.coords, threaded.coords)


def test_samples_live_in_cone(algebra):
    p = shape_threshold(algebra) + 0.7
    batch = sample(isotropic(algebra, p), 2000, seed=17)
    assert (eigvals_batch(algebra, batch.coords)[:, 0] > 0.0).all()
    assert len(batch) == 2000


def test_a_batch_with_draws_singular_to_rounding_is_whole():
    # this batch holds 1,640 draws whose smallest eigenvalue is <= 0; a batch
    # carries no per-row cone certificate, so every member works on it
    batch = sample(isotropic(SYM3, 1.05), 20000, seed=0)
    assert (eigvals_batch(SYM3, batch.coords)[:, 0] <= 0.0).sum() > 1000
    assert not hasattr(batch, "samples") and not hasattr(batch, "min_eigenvalues")
    again = SampleBatch.from_json_dict(batch.to_json_dict())
    assert np.array_equal(again.coords, batch.coords)
    with pytest.raises(ValueError):
        batch.coords[0, 0] = 1.0


def test_scalar_sampler_matches_gamma_distribution():
    params = isotropic(SYM1, 1.0)
    batch = sample(params, 20000, seed=3)
    d, _ = stats.kstest(batch.coords[:, 0], "gamma", args=(1.0,))
    assert d < 1.358 / math.sqrt(20000)
    # non-unit rate through the scale transport
    params2 = isotropic(SYM1, 2.0, scale=4.0)
    batch2 = sample(params2, 20000, seed=3)
    d2, _ = stats.kstest(batch2.coords[:, 0], "gamma", args=(2.0, 0.0, 0.25))
    assert d2 < 1.358 / math.sqrt(20000)


def test_scale_equivariance_two_sample():
    # transporting standard draws by P(a^(-1/2)) matches the direct sampler
    c = unit(SYM2).coords.copy()
    c[0], c[2] = 2.0, 0.5
    a = ConeElement.certify(Element(SYM2, c))
    params_a = WishartParams(SYM2, 3.0, a)
    direct = sample(params_a, 50000, seed=5)
    standard = sample(isotropic(SYM2, 3.0), 50000, seed=6)
    transported = standard.coords @ p_map(inv_sqrt_in_cone(a.element)).entries.T
    gap = np.abs(direct.coords.mean(0) - transported.mean(0))
    se = np.sqrt(
        direct.coords.var(0, ddof=1) / 50000 + transported.var(0, ddof=1) / 50000
    )
    assert (gap < 4.0 * se + 1e-12).all()
    t = 0.3 * unit(SYM2)
    lt_direct = float(np.mean(np.exp(-direct.coords @ t.coords)))
    lt_transport = float(np.mean(np.exp(-transported @ t.coords)))
    assert lt_direct == pytest.approx(lt_transport, rel=0.01)


def test_draws_from_one_law_map_its_scale_once(monkeypatch):
    calls = []
    inv_sqrt = geometry._inv_sqrt

    def counting(spectrum):
        calls.append(spectrum)
        return inv_sqrt(spectrum)

    monkeypatch.setattr(geometry, "_inv_sqrt", counting)
    c = unit(SYM2).coords.copy()
    c[0], c[2] = 2.0, 0.5
    params = WishartParams(SYM2, 3.0, ConeElement.certify(Element(SYM2, c)))
    first = sample(params, 100, seed=5)
    second = sample(params, 100, seed=6)
    assert len(calls) == 1
    assert not np.array_equal(first.coords, second.coords)


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "symr:5"])
def test_draws_near_the_threshold_are_certified_in_the_closed_cone(spec):
    # at p = threshold + 0.05 the last Bartlett pivot is Gamma(0.05), so
    # about 9% of the draws are singular to rounding: the closure admits them
    algebra = Algebra.from_spec(spec)
    batch = sample(isotropic(algebra, shape_threshold(algebra) + 0.05), 20000, seed=0)
    assert np.isfinite(batch.coords).all()
    w = np.linalg.eigvalsh(coords_to_mats(algebra, batch.coords))
    tr = w.sum(axis=1)
    assert (w[:, 0] >= -1e-12 * tr).all()
    assert (w[:, 0] <= 1e-12 * tr).sum() > 100


def test_sampler_threshold_validation():
    with pytest.raises(ValueError, match="dim/r - 1"):
        isotropic(SYM3, 1.0)


def test_invalid_count():
    with pytest.raises(ValueError):
        sample(isotropic(SYM2, 3.0), 0, seed=1)


# ---------------------------------------------------------------------------
# batch serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_bit_exact(tmp_path):
    params = isotropic(SYM2, 3.0)
    batch = sample(params, 257, seed=12, stream=3)
    path = tmp_path / "batch.csv"
    batch.to_csv(path)
    again = SampleBatch.from_csv(path)
    assert np.array_equal(again.coords, batch.coords)
    assert (again.seed, again.stream, len(again)) == (12, 3, 257)
    assert again.params.p == params.p


def test_json_round_trip_is_bit_exact():
    batch = sample(isotropic(Algebra.lorentz(3), 2.0), 64, seed=2)
    doc = json.dumps(batch.to_json_dict())
    again = SampleBatch.from_json_dict(json.loads(doc))
    assert np.array_equal(again.coords, batch.coords)


def test_csv_header_carries_metadata():
    batch = sample(isotropic(SYM1, 1.5), 8, seed=0)
    buf = io.StringIO()
    batch.write_csv(buf)
    text = buf.getvalue()
    assert "# algebra=symr:1" in text
    assert "# seed=0" in text
    assert text.splitlines()[-1].count(",") == SYM1.dim - 1


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3"])
def test_a_scale_is_diagonalised_once(spec, eigh_calls):
    alg = Algebra.from_spec(spec)
    anis = unit(alg).coords.copy()
    anis[0] = 2.0
    scale, t = Element(alg, anis), Element(alg, 0.3 * anis)
    for certified in (True, False):
        eigh_calls.clear()
        # a ConeElement built without certify diagonalises on its first map instead
        a = ConeElement.certify(scale) if certified else ConeElement(scale, 1.0)
        params = WishartParams(alg, 4.0, a)
        for seed in range(3):
            sample(params, 20, seed)
            laplace_transform(params, t)
            mean(params)
        assert len(eigh_calls) == 1
    # the same bits as a fresh a^(-1/2) and a^(-1)
    arg = unit(alg) + quadratic_action(inv_sqrt_in_cone(a.element), t)
    assert laplace_transform(params, t) == math.exp(-4.0 * _log_det(arg))
    assert mean(params).coords.tobytes() == (4.0 * inverse(a.element)).coords.tobytes()
