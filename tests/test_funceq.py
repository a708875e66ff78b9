import ast
import json
import math
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from _utils import rel_err
from symcone import eigh, funceq, wishart
from symcone.algebra import (
    EPS_CONE,
    Algebra,
    Element,
    _in_open_cone,
    _in_open_cone_ldl,
    _inv_sqrt_batch,
    _ldl_pivots,
    _log_det,
    eigenvalues,
    eigvals_batch,
    inner,
    trace,
    traces_batch,
    unit,
)
from symcone.errors import AlgebraMismatch, NotInCone
from symcone.funceq import (
    SMALL_BATCH,
    ConeBatch,
    ResidualReport,
    ScalarField,
    SolutionFamily,
    _evaluate,
    _sweep_batch,
    cauchy_difference,
    cocycle_residual,
    det_over_trace_field,
    generate_pexider_samples,
    homogeneity_defect,
    linear_field,
    log_det_field,
    log_quadratic_residual,
    make_regular_solution,
    olkin_baker_residual,
    pexider_fit,
    sample_cone_pairs,
    sample_cone_points,
    sample_cone_triples,
    trace_field,
    wishart_dictionary,
    with_injected_defect,
)
from symcone.geometry import ConeElement, contains_open, in_domain_D
from symcone.harness import split, split_batch
from symcone.rng import PURPOSE_PAIRS

SYM1 = Algebra.sym_real(1)
SYM2 = Algebra.sym_real(2)
SYM3 = Algebra.sym_real(3)
LOR2 = Algebra.lorentz(2)


@pytest.fixture(scope="module")
def sym3_pairs():
    return sample_cone_pairs(SYM3, 500, seed=101)


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

def test_zero_family_is_identically_zero():
    fam = SolutionFamily(lam=0.0 * unit(SYM2), c1=0.0, c2=0.0, kappa=0.0)
    a, b, c, d = make_regular_solution(fam)
    assert a(unit(SYM2)) == b(unit(SYM2)) == c(unit(SYM2)) == 0.0
    assert d(0.5 * unit(SYM2)) == 0.0


def test_scalar_family_closed_form():
    fam = SolutionFamily(lam=-1.0 * unit(SYM1), c1=1.0, c2=2.0, kappa=0.0)
    a, _, _, _ = make_regular_solution(fam)
    for x in (0.5, 1.0, 3.0):
        assert a(Element(SYM1, [x])) == pytest.approx(-x + math.log(x), abs=1e-14)


def test_beta_component_at_half_unit():
    fam = SolutionFamily(lam=0.0 * unit(SYM2), c1=1.0, c2=1.0, kappa=0.0)
    _, _, _, d = make_regular_solution(fam)
    # det((1/2) e) = 1/4 on rank two, both log-det terms contribute
    assert d(0.5 * unit(SYM2)) == pytest.approx(-4.0 * math.log(2.0), abs=1e-12)


FAMILIES = [
    SolutionFamily(lam=0.0 * unit(SYM3), c1=0.0, c2=0.0, kappa=0.0),
    SolutionFamily(lam=-1.0 * unit(SYM3), c1=1.0, c2=2.0, kappa=0.0),
    SolutionFamily(lam=0.3 * unit(SYM3), c1=-0.7, c2=1.9, kappa=2.5),
]


@pytest.mark.parametrize("fam", FAMILIES, ids=["zero", "simple", "generic"])
def test_solution_families_solve_olkin_baker(fam, sym3_pairs):
    report = olkin_baker_residual(*make_regular_solution(fam), sym3_pairs)
    assert report.max_residual < 1e-10
    assert report.equation == "olkin-baker"
    assert report.n_pairs == len(sym3_pairs)


def test_family_with_generic_lambda(rng, sym3_pairs):
    lam = Element(SYM3, rng.standard_normal(SYM3.dim))
    fam = SolutionFamily(lam=lam, c1=0.8, c2=-0.2, kappa=-1.0)
    report = olkin_baker_residual(*make_regular_solution(fam), sym3_pairs)
    assert report.max_residual < 1e-10


def test_kappa_is_a_gauge_freedom(sym3_pairs):
    base = SolutionFamily(lam=0.2 * unit(SYM3), c1=1.0, c2=0.5, kappa=0.0)
    shifted = SolutionFamily(lam=base.lam, c1=base.c1, c2=base.c2, kappa=7.3)
    r0 = olkin_baker_residual(*make_regular_solution(base), sym3_pairs)
    r1 = olkin_baker_residual(*make_regular_solution(shifted), sym3_pairs)
    assert r0.max_residual < 1e-10 and r1.max_residual < 1e-10


def test_wishart_dictionary_solves_equation(sym3_pairs):
    a0 = ConeElement.certify(unit(SYM3))
    report = olkin_baker_residual(*wishart_dictionary(2.5, 4.0, a0), sym3_pairs)
    assert report.max_residual < 1e-10


def test_wishart_dictionary_anisotropic_scale(rng, sym3_pairs):
    c = unit(SYM3).coords.copy()
    c[0], c[3] = 2.0, 0.7
    a0 = ConeElement.certify(Element(SYM3, c))
    report = olkin_baker_residual(*wishart_dictionary(3.0, 2.0, a0), sym3_pairs)
    assert report.max_residual < 1e-10


def test_injected_defect_is_detected(sym3_pairs):
    fam = SolutionFamily(lam=0.0 * unit(SYM3), c1=1.0, c2=1.0, kappa=0.0)
    a, b, c, d = make_regular_solution(fam)
    report = olkin_baker_residual(a, b, c, with_injected_defect(d, 0.1), sym3_pairs)
    assert report.max_residual == pytest.approx(0.1, abs=1e-9)


def test_symmetric_substitution_identity(sym3_pairs):
    # swapping the arguments and substituting y = x collapses the equation to
    # 2c(x+y) + d(u) + d(e-u) = c(2x) + c(2y) + 2 d((1/2) e)
    fam = SolutionFamily(lam=0.4 * unit(SYM3), c1=1.3, c2=-0.5, kappa=1.0)
    _, _, c, d = make_regular_solution(fam)
    e = unit(SYM3)
    worst = 0.0
    for x, y in sym3_pairs[:200]:
        pair = split(x, y)
        lhs = 2.0 * c(x + y) + d(pair.u) + d(e - pair.u)
        rhs = c(2.0 * x) + c(2.0 * y) + 2.0 * d(0.5 * e)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# log-quadratic identity
# ---------------------------------------------------------------------------

def test_log_det_satisfies_log_quadratic(sym3_pairs):
    product_form, conjugation_form = log_quadratic_residual(
        log_det_field(0.8), sym3_pairs[:300]
    )
    assert product_form.max_residual < 1e-9
    assert conjugation_form.max_residual < 1e-9


def test_trace_fails_log_quadratic(sym3_pairs):
    product_form, _ = log_quadratic_residual(trace_field(), sym3_pairs[:100])
    assert product_form.max_residual > 0.1


def test_zero_field_passes_trivially(sym3_pairs):
    product_form, conjugation_form = log_quadratic_residual(
        ScalarField(lambda x: 0.0), sym3_pairs[:50]
    )
    assert product_form.max_residual == 0.0
    assert conjugation_form.max_residual == 0.0


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_zero_order_homogeneous_field(rng):
    points = sample_cone_points(SYM2, 100, seed=5)
    r = SYM2.rank
    field = ScalarField(
        lambda x: float(np.sum(np.log(eigenvalues(x)))) - r * math.log(trace(x))
    )
    assert homogeneity_defect(field, [0.5, 2.0, 3.7], points) < 1e-12


def test_trace_is_not_homogeneous():
    points = sample_cone_points(SYM2, 50, seed=6)
    assert homogeneity_defect(trace_field(), [2.0], points) > 0.1


def test_reduced_log_det_field_vanishes():
    points = sample_cone_points(SYM2, 20, seed=7)
    field = ScalarField(lambda x: 0.0)
    assert homogeneity_defect(field, [0.5, 4.0], points) == 0.0


def test_points_are_the_pairs_first_column():
    for spec in ("symr:3", "hermc:3", "lorentz:4"):
        alg = Algebra.from_spec(spec)
        points = sample_cone_points(alg, 60, seed=14)
        assert isinstance(points, ConeBatch) and len(points.columns) == 1
        assert np.array_equal(points.columns[0], sample_cone_pairs(alg, 60, seed=14).columns[0])
        field = det_over_trace_field()
        on_batch = homogeneity_defect(field, [0.5, 2.0, 3.7], points)
        assert homogeneity_defect(field, [0.5, 2.0, 3.7], [x for (x,) in points]) == on_batch
        assert homogeneity_defect(field, [0.5, 2.0, 3.7], list(points)) == on_batch


def test_homogeneity_rejects_bad_scale():
    for scale in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"finite and positive; got \[2\.0, {scale!r}\]$"):
            homogeneity_defect(trace_field(), [2.0, scale], [unit(SYM2)])


# ---------------------------------------------------------------------------
# cocycle equation
# ---------------------------------------------------------------------------

def test_cauchy_difference_of_log_det_satisfies_cocycle():
    triples = sample_cone_triples(SYM3, 300, seed=11)
    report = cocycle_residual(cauchy_difference(log_det_field()), triples)
    assert report.max_residual < 1e-10


def test_linear_field_has_zero_cauchy_difference():
    triples = sample_cone_triples(SYM2, 100, seed=12)
    lam = 0.7 * unit(SYM2)
    C = cauchy_difference(ScalarField(lambda x: inner(lam, x)))
    report = cocycle_residual(C, triples)
    assert report.max_residual < 1e-12


def test_squared_inner_product_fails_cocycle():
    triples = sample_cone_triples(SYM2, 100, seed=13)
    report = cocycle_residual(lambda x, y: inner(x, y) ** 2, triples)
    assert report.max_residual > 1.0


# ---------------------------------------------------------------------------
# Pexider recovery
# ---------------------------------------------------------------------------

def test_pexider_recovery():
    lam = unit(SYM2)
    samples = generate_pexider_samples(SYM2, lam, b=1.0, c=-2.0, count=500, seed=21)
    fit = pexider_fit(samples)
    assert np.abs(fit.lam.coords - lam.coords).max() < 1e-8
    assert fit.b == pytest.approx(1.0, abs=1e-8)
    assert fit.c == pytest.approx(-2.0, abs=1e-8)
    assert fit.max_residual < 1e-8


def test_pexider_constant_corollary():
    # lam = 0 degenerates to constant k with l = k - c and n = c
    lam = 0.0 * unit(SYM2)
    samples = generate_pexider_samples(SYM2, lam, b=3.0, c=-1.25, count=200, seed=22)
    k_value = 3.0 + (-1.25)
    fit = pexider_fit(samples)
    assert np.abs(fit.lam.coords).max() < 1e-10
    assert fit.c == pytest.approx(-1.25, abs=1e-10)
    assert fit.b == pytest.approx(k_value - fit.c, abs=1e-10)


def test_pexider_zero_data():
    lam = 0.0 * unit(SYM2)
    samples = generate_pexider_samples(SYM2, lam, b=0.0, c=0.0, count=100, seed=23)
    fit = pexider_fit(samples)
    assert np.abs(fit.lam.coords).max() < 1e-12
    assert abs(fit.b) < 1e-12 and abs(fit.c) < 1e-12


def test_pexider_fit_rejects_mixed_algebras():
    # symr:2 and lorentz:2 share dim 3, so only the algebra tags differ
    samples = [
        *generate_pexider_samples(SYM2, unit(SYM2), b=1.0, c=-2.0, count=20, seed=24),
        *generate_pexider_samples(LOR2, unit(LOR2), b=1.0, c=-2.0, count=20, seed=25),
    ]
    with pytest.raises(AlgebraMismatch):
        pexider_fit(samples)
    with pytest.raises(AlgebraMismatch):
        generate_pexider_samples(SYM2, unit(LOR2), b=1.0, c=-2.0, count=20, seed=24)


def test_pexider_rank_deficient_design():
    x = unit(SYM2)
    samples = [(x, x, 2.0, 1.0, 1.0)] * 30
    with pytest.raises(ValueError, match="rank"):
        pexider_fit(samples)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_residual_report_serialization():
    report = ResidualReport(
        equation="olkin-baker", algebra="symr:3", n_pairs=10,
        max_residual=1e-12, mean_residual=1e-13, seed=5,
    )
    doc = json.loads(report.to_json())
    assert set(doc) == {"equation", "algebra", "n_pairs", "max_residual", "mean_residual", "seed"}


def test_residual_report_is_slotted():
    report = ResidualReport("olkin-baker", "symr:3", 10, 1e-12, 1e-13)
    assert not hasattr(report, "__dict__")
    report.equation = "olkin-baker-wishart"
    assert asdict(report)["equation"] == "olkin-baker-wishart"
    assert json.loads(report.to_json())["equation"] == "olkin-baker-wishart"


def test_scalar_field_domain_tag():
    with pytest.raises(ValueError):
        ScalarField(lambda x: 0.0, domain="X")
    f = log_det_field(domain="D")
    assert f.domain == "D"


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "symr:5", "lorentz:4"])
def test_margin_filter_agrees_with_eigenvalues(spec):
    alg = Algebra.from_spec(spec)
    # draws just above the shape threshold spread lambda_min / tr over many decades
    p = wishart.shape_threshold(alg) + 0.05
    draws = wishart._standard_chunk_coords(alg, p, 4000, np.random.default_rng(9))
    w = eigvals_batch(alg, draws)
    for margin in (EPS_CONE, 1e-9, 1e-6, 1e-3, 1e-2):
        kept = _in_open_cone(w, margin)
        assert 0 < kept.sum() < len(draws)
        # skip rows whose gap to the margin is at the rounding level
        gap = w[:, 0] - margin * traces_batch(alg, draws)
        decided = np.abs(gap) > 1e-13 * np.abs(w).max(axis=1)
        by_pivots = _in_open_cone_ldl(alg, draws, margin)
        assert np.array_equal(by_pivots[decided], kept[decided])


def test_sweep_points_clear_the_margin():
    for spec in ("symr:3", "hermc:3"):
        alg = Algebra.from_spec(spec)
        (x,) = _sweep_batch(alg, 500, 4, range(1), 1e-2).columns
        assert (eigvals_batch(alg, x)[:, 0] > 1e-2 * traces_batch(alg, x)).all()


def test_sweep_samplers_are_deterministic():
    p1 = sample_cone_pairs(SYM2, 50, seed=77)
    p2 = sample_cone_pairs(SYM2, 50, seed=77)
    assert all(
        np.array_equal(a.coords, b.coords) and np.array_equal(c.coords, d.coords)
        for (a, c), (b, d) in zip(p1, p2)
    )


# ---------------------------------------------------------------------------
# batch-first evaluation
# ---------------------------------------------------------------------------

def test_scalar_fields_agree_with_their_batch_rows(algebra):
    pairs = sample_cone_pairs(algebra, 20, seed=31)
    x = np.stack([p.coords for p, _ in pairs])
    y = np.stack([q.coords for _, q in pairs])
    _, u, _ = split_batch(algebra, x, y)
    lam = Element(algebra, np.linspace(-1.0, 1.0, algebra.dim))
    fam = SolutionFamily(lam=lam, c1=0.7, c2=-1.3, kappa=0.4)
    fields = [
        log_det_field(0.8), trace_field(2.0), linear_field(lam),
        with_injected_defect(log_det_field(), 0.1),
        *make_regular_solution(fam),
        *wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(algebra))),
    ]
    for f in fields:
        rows = u if f.domain == "D" else x
        batch = _evaluate(f, algebra, rows)
        scalar = [f(Element(algebra, row)) for row in rows]
        assert rel_err(scalar, batch) < 1e-12
    C = cauchy_difference(log_det_field())
    batch = _evaluate(C, algebra, x, y)
    scalar = [C(p, q) for p, q in pairs]
    assert rel_err(scalar, batch) < 1e-12


def test_sweeps_make_a_fixed_number_of_eigensolver_calls(monkeypatch):
    fam = SolutionFamily(lam=0.3 * unit(SYM3), c1=-0.7, c2=1.9, kappa=2.5)
    dictionary = wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(SYM3)))
    sweeps = {
        "olkin-baker": lambda pairs, triples: olkin_baker_residual(
            *make_regular_solution(fam), pairs
        ),
        "olkin-baker-wishart": lambda pairs, triples: olkin_baker_residual(*dictionary, pairs),
        "log-quadratic": lambda pairs, triples: log_quadratic_residual(log_det_field(), pairs),
        "cocycle": lambda pairs, triples: cocycle_residual(
            cauchy_difference(log_det_field()), triples
        ),
        "homogeneity": lambda pairs, triples: homogeneity_defect(
            log_det_field(), [0.5, 2.0], [x for x, _ in pairs]
        ),
    }
    # a small batch computes at once what a large one computes on demand, so
    # the count is fixed on each side of SMALL_BATCH
    sizes = [(10, SMALL_BATCH), (SMALL_BATCH + 1, 200)]
    inputs = {
        n: (sample_cone_pairs(SYM3, n, seed=41), sample_cone_triples(SYM3, n, seed=42))
        for n in sum(sizes, ())
    }
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return wrapper

    # log det runs through the LDL^H kernel, so a sweep may make no Jacobi call
    monkeypatch.setattr(eigh, "jacobi_eigh_batch", counting(eigh.jacobi_eigh_batch))
    monkeypatch.setattr("symcone.algebra._ldl_pivots", counting(_ldl_pivots))
    for name, sweep in sweeps.items():
        for pair in sizes:
            counts = []
            for n in pair:
                calls.clear()
                # a slice is a fresh batch, with nothing cached by earlier sweeps
                sweep(*(batch[:] for batch in inputs[n]))
                counts.append(len(calls))
            assert counts[0] == counts[1] > 0, (name, pair)


def test_cone_decisions_make_no_eigensolver_call(eigh_calls):
    def count(fn, *args):
        eigh_calls.clear()
        fn(*args)
        return len(eigh_calls)

    for spec in ("symr:3", "hermc:3"):
        alg = Algebra.from_spec(spec)
        params = wishart.WishartParams.isotropic(alg, 4.0)
        dictionary = wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(alg)))
        pairs = sample_cone_pairs(alg, 50, seed=3)
        x = pairs[0][0]
        assert count(wishart.log_density, params, x) == 0
        assert count(contains_open, x) == 0
        assert count(in_domain_D, 0.5 * unit(alg)) == 0
        # a^(-1/2) comes from the spectrum the certified scale keeps
        assert count(wishart.laplace_transform, params, x) == 0
        # one Jacobi call on the small batch's stacked [v; y]; the density fields make none
        assert count(olkin_baker_residual, *dictionary, pairs) == 1


def test_user_fields_and_maps_take_the_row_loop(sym3_pairs):
    pairs = sym3_pairs[:30]
    fam = SolutionFamily(lam=0.4 * unit(SYM3), c1=1.3, c2=-0.5, kappa=1.0)
    a, b, c, d = make_regular_solution(fam)
    user = [ScalarField(lambda x, f=f: f(x), f.domain) for f in (a, b, c, d)]
    assert olkin_baker_residual(*user, pairs).max_residual < 1e-10

    # a user predicate on a built-in field, and a user field with the default one
    def corner(u):
        return u.coords[0] > 0.5

    hits = [corner(split(x, y).u) for x, y in pairs]
    assert 0 < sum(hits) < len(hits)
    defect = olkin_baker_residual(a, b, c, with_injected_defect(d, 0.5, corner), pairs)
    assert defect.max_residual == pytest.approx(0.5, abs=1e-9)
    assert defect.mean_residual == pytest.approx(0.5 * sum(hits) / len(hits), abs=1e-9)
    shifted = with_injected_defect(ScalarField(lambda x: 1.0), 0.25)
    assert shifted(unit(SYM3)) == 1.25 and shifted(0.1 * unit(SYM3)) == 1.0
    triples = sample_cone_triples(SYM3, 20, seed=43)
    plain = cocycle_residual(lambda x, y: -_log_det(x + y) + _log_det(x) + _log_det(y), triples)
    assert plain.max_residual < 1e-10


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        olkin_baker_residual(*make_regular_solution(FAMILIES[0]), [])
    with pytest.raises(ValueError):
        log_quadratic_residual(log_det_field(), sample_cone_pairs(SYM3, 10, seed=0)[:0])
    with pytest.raises(ValueError):
        homogeneity_defect(trace_field(), [2.0], [])


def test_mixed_algebras_rejected():
    # symr:2 and lorentz:2 share dim 3, so only the algebra tags differ
    pairs = [(unit(SYM2), unit(Algebra.lorentz(2)))]
    with pytest.raises(AlgebraMismatch):
        log_quadratic_residual(log_det_field(), pairs)


# ---------------------------------------------------------------------------
# pair batches
# ---------------------------------------------------------------------------

def test_a_pair_batch_is_split_once(eigh_calls):
    families = [SolutionFamily(lam=0.3 * unit(SYM3), c1=-0.7, c2=1.9, kappa=2.5), FAMILIES[1]]
    a, b, c, d = make_regular_solution(FAMILIES[1])
    quadruples = [
        *(make_regular_solution(fam) for fam in families),
        wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(SYM3))),
        (a, b, c, with_injected_defect(d, 0.1)),
    ]

    def sweeps(pairs):
        reports = [olkin_baker_residual(*quadruple, pairs) for quadruple in quadruples]
        for field in (log_det_field(0.8), trace_field()):
            reports += log_quadratic_residual(field, pairs)
        return [report.to_json() for report in reports]

    funceq._sweep_params.cache_clear()
    eigh_calls.clear()
    pairs = sample_cone_pairs(SYM3, 40, seed=0)
    # both streams share one certified scale, which later samplers reuse
    assert eigh_calls == [1]
    eigh_calls.clear()
    sample_cone_triples(SYM3, 20, seed=1)
    assert eigh_calls == []
    sample_cone_points(SYM3, 20, seed=2)
    assert eigh_calls == []
    on_batch = sweeps(pairs)
    # one Jacobi call on the stacked [x + y; y] for six sweeps
    assert eigh_calls == [80]
    x, y = pairs.columns
    for kept, fresh in zip((*pairs.split, pairs.y_inv_sqrt),
                           (*split_batch(SYM3, x, y), _inv_sqrt_batch(SYM3, y))):
        assert not kept.flags.writeable
        assert np.array_equal(kept, fresh)
        with pytest.raises(ValueError):
            kept[0, 0] = 0.0
    assert sweeps(list(pairs)) == on_batch


def test_a_sweep_round_factors_each_column_once(monkeypatch, eigh_calls):
    a, b, c, d = make_regular_solution(FAMILIES[1])
    quadruples = [
        make_regular_solution(FAMILIES[2]),
        (a, b, c, d),
        wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(SYM3))),
        (a, b, c, with_injected_defect(d, 0.1)),
    ]
    cocycle = cauchy_difference(log_det_field())
    funceq._sweep_params(SYM3)  # the certified scale, cached apart from the round
    eigh_calls.clear()
    pivot_calls = []

    def counting(*args, **kwargs):
        pivot_calls.append(1)
        return _ldl_pivots(*args, **kwargs)

    monkeypatch.setattr("symcone.algebra._ldl_pivots", counting)
    # a round of the funceq-symr3 benchmark: 40 pairs, 20 triples, seven sweeps
    pairs = sample_cone_pairs(SYM3, 40, seed=0)
    triples = sample_cone_triples(SYM3, 20, seed=1)
    for quadruple in quadruples:
        olkin_baker_residual(*quadruple, pairs)
    log_quadratic_residual(log_det_field(0.8), pairs)
    log_quadratic_residual(trace_field(), pairs)
    cocycle_residual(cocycle, triples)
    # two samplers (a certificate and a margin filter each), the x, y, v and
    # u columns, the log-quadratic points and the cocycle points
    assert len(pivot_calls) <= 10
    assert eigh_calls == [80]


def test_a_sweep_factors_and_diagonalises_only_what_it_reads(monkeypatch, eigh_calls):
    n = SMALL_BATCH + 1
    pairs, triples = sample_cone_pairs(SYM3, n, seed=0), sample_cone_triples(SYM3, n, seed=1)
    rows = []

    def counting(alg, coords):
        rows.append(len(coords))
        return _ldl_pivots(alg, coords)

    monkeypatch.setattr("symcone.algebra._ldl_pivots", counting)
    dictionary = wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(SYM3)))
    cases = [
        # x, y, v, u and e - u; v's split diagonalises x + y only
        (olkin_baker_residual, (*make_regular_solution(FAMILIES[1]), pairs), [n] * 5, [n]),
        # each density reads a column and its open-cone shift in one call
        (olkin_baker_residual, (*dictionary, pairs), [2 * n] * 3 + [n, n], [n]),
        # the four point sets as one column; y^(-1/2) diagonalises y only
        (log_quadratic_residual, (log_det_field(), pairs), [4 * n], [n]),
        (cocycle_residual, (cauchy_difference(log_det_field()), triples), [3 * 4 * n], []),
    ]
    for sweep, args, factored, diagonalised in cases:
        rows.clear()
        eigh_calls.clear()
        # a slice is a fresh batch, with nothing cached by earlier sweeps
        sweep(*args[:-1], args[-1][:])
        assert (rows, eigh_calls) == (factored, diagonalised), sweep.__name__
    # a small batch factors all three parts of a column at its first read, and
    # diagonalises [v; y] once for its split, so a log-quadratic sweep after
    # an Olkin-Baker sweep makes no Jacobi call
    small = pairs[:SMALL_BATCH]
    rows.clear()
    eigh_calls.clear()
    olkin_baker_residual(*make_regular_solution(FAMILIES[1]), small)
    assert (rows, eigh_calls) == ([3 * SMALL_BATCH] * 4, [2 * SMALL_BATCH])
    rows.clear()
    eigh_calls.clear()
    olkin_baker_residual(*dictionary, small)
    log_quadratic_residual(log_det_field(), small)
    assert (rows, eigh_calls) == ([4 * SMALL_BATCH], [])


@pytest.mark.parametrize("count", [40, SMALL_BATCH + 1])
@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "lorentz:4"])
def test_cached_columns_give_the_bytes_of_fresh_arrays(spec, count):
    alg = Algebra.from_spec(spec)
    x, y = (np.array(c) for c in sample_cone_pairs(alg, count, seed=12).columns)
    # every fourth x leaves the cone (x = -y/2) while x + y = y/2 stays in it
    x[::4] = -0.5 * y[::4]
    pairs = ConeBatch(alg, [x, y])
    lam = Element(alg, np.linspace(-1.0, 1.0, alg.dim))
    dictionary = wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(alg)))
    fields = [
        log_det_field(0.8), trace_field(2.0), linear_field(lam), det_over_trace_field(),
        with_injected_defect(log_det_field(), 0.1),
        *make_regular_solution(SolutionFamily(lam=lam, c1=0.7, c2=-1.3, kappa=0.4)),
        *dictionary,
    ]
    C = cauchy_difference(log_det_field())
    with np.errstate(divide="ignore", invalid="ignore"):
        olkin_baker_residual(*dictionary, pairs)  # fills the columns' caches
        columns = pairs._factored
        for column in columns:
            # the kernels a column stands in for
            coords = np.array(column.coords)
            for log_det, part in ((column.log_det, coords),
                                  (column.complement_log_det, unit(alg).coords - coords)):
                alone = np.sum(np.log(_ldl_pivots(alg, part)), axis=-1)
                assert log_det.tobytes() == alone.tobytes()
            assert np.array_equal(column.inside, _in_open_cone_ldl(alg, coords))
        for f in fields:
            for column in columns:
                fresh = _evaluate(f, alg, np.array(column.coords))
                assert _evaluate(f, alg, column).tobytes() == fresh.tobytes()
        fresh = _evaluate(C, alg, x, y)
        assert _evaluate(C, alg, *columns[:2]).tobytes() == fresh.tobytes()
    density = _evaluate(dictionary[0], alg, columns[0])
    assert np.isneginf(density[::4]).all() and np.isfinite(density[1::4]).all()
    # the split and y^(-1/2), from one stacked Jacobi call or apart, keep their bytes
    for kept, fresh in zip((*pairs.split, pairs.y_inv_sqrt),
                           (*split_batch(alg, x, y), _inv_sqrt_batch(alg, y))):
        assert kept.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("count", [40, SMALL_BATCH + 1])
def test_a_pair_batch_checks_v_and_y_apart(count):
    x, y = (np.array(c) for c in sample_cone_pairs(SYM3, count, seed=13).columns)
    # y leaves the cone in one row while x + y stays inside
    x[5], y[5] = x[5] + y[5], -0.25 * y[5]
    pairs = ConeBatch(SYM3, [x, y])
    assert np.array_equal(pairs.split[0], x + y)
    with pytest.raises(NotInCone, match="inverse square root"):
        pairs.y_inv_sqrt


def test_sweep_streams_retry_on_keys_of_their_own(monkeypatch):
    # no rank-3 draw has lambda_min > tr / 2, so both streams exhaust their retries
    keys = []
    draw = wishart._draw

    def recording(params, count, seed, streams, **kwargs):
        keys.append(list(streams))
        return draw(params, count, seed, streams, **kwargs)

    monkeypatch.setattr(wishart, "_draw", recording)
    with pytest.raises(RuntimeError, match="rejected too many draws"):
        _sweep_batch(SYM3, 4, 0, range(2), margin=0.5)
    # one sampler pass per attempt; stream s tries exactly 64 s .. 64 s + 63
    assert keys == [[attempt, 64 + attempt] for attempt in range(64)]


def _sweep_oracle(algebra, count, seed, n_streams, margin=1e-6):
    """Sweep columns drawn stream by stream: one ``sample`` call and one
    margin filter per stream and attempt."""
    params = funceq._sweep_params(algebra)
    columns = []
    for stream in range(n_streams):
        kept, found = [], 0
        for attempt in range(64):
            coords = wishart.sample(
                params, max(count, 64), seed, stream=stream * 64 + attempt, _purpose=PURPOSE_PAIRS
            ).coords
            kept.append(coords[_in_open_cone_ldl(algebra, coords, margin)])
            found += len(kept[-1])
            if found >= count:
                break
        else:
            raise RuntimeError("cone-margin filtering rejected too many draws")
        columns.append(np.concatenate(kept)[:count])
    return columns


@pytest.mark.parametrize("count", [1, 40, 64, 65, 500])
@pytest.mark.parametrize(
    "spec", ["symr:2", "symr:5", "hermc:2", "hermc:4", "lorentz:3", "lorentz:4"]
)
def test_stacked_sweep_draws_keep_the_bytes_of_one_stream_at_a_time(spec, count):
    alg = Algebra.from_spec(spec)
    for n_streams, sampler in enumerate(
        (sample_cone_points, sample_cone_pairs, sample_cone_triples), start=1
    ):
        batch = sampler(alg, count, seed=count)
        oracle = _sweep_oracle(alg, count, count, n_streams)
        assert len(batch.columns) == n_streams
        for column, expected in zip(batch.columns, oracle):
            assert column.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec, margin", [("symr:3", 0.2), ("hermc:4", 0.05)])
def test_stacked_sweep_retries_keep_the_bytes_of_one_stream_at_a_time(spec, margin):
    # at these margins the three streams fill on different attempts (on
    # symr:3 after 14, 21 and 15), so later attempts stack fewer streams
    alg = Algebra.from_spec(spec)
    batch = _sweep_batch(alg, 40, 3, range(3), margin=margin)
    for column, expected in zip(batch.columns, _sweep_oracle(alg, 40, 3, 3, margin)):
        assert column.tobytes() == expected.tobytes()


def test_a_sweep_batch_makes_one_certificate_and_one_filter(monkeypatch):
    funceq._sweep_params(SYM3)  # the certified scale, cached apart from the count
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _ldl_pivots(*args, **kwargs)

    monkeypatch.setattr("symcone.algebra._ldl_pivots", counting)
    sample_cone_triples(SYM3, 20, seed=1)
    # three streams, each filled on its first attempt: one closure certificate
    # and one margin filter over all 192 rows
    assert len(calls) == 2


def test_a_column_may_fill_on_its_last_attempt(monkeypatch):
    rejections = []
    in_cone = funceq._in_open_cone_ldl

    def late(algebra, coords, margin):
        # one filter call per attempt for both columns; every row fails on
        # the first 63
        rejections.append(1)
        inside = in_cone(algebra, coords, margin)
        return inside if len(rejections) == 64 else np.zeros_like(inside)

    monkeypatch.setattr(funceq, "_in_open_cone_ldl", late)
    pairs = _sweep_batch(SYM3, 20, 5, range(2))
    assert len(rejections) == 64 and len(pairs) == 20
    params = funceq._sweep_params(SYM3)
    for stream, column in enumerate(pairs.columns):
        coords = wishart.sample(params, 64, 5, stream=64 * stream + 63, _purpose=PURPOSE_PAIRS).coords
        assert column.tobytes() == coords[in_cone(SYM3, coords, 1e-6)][:20].tobytes()


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "lorentz:4"])
def test_a_cone_batch_is_a_sequence_of_element_tuples(spec):
    alg = Algebra.from_spec(spec)
    pairs = sample_cone_pairs(alg, 40, seed=8)
    assert isinstance(pairs, Sequence) and len(pairs) == 40
    x, y = pairs.columns
    assert not x.flags.writeable and not y.flags.writeable
    for index in (0, -1):
        row = pairs[index]
        assert isinstance(row, tuple) and len(row) == 2
        assert all(isinstance(p, Element) and p.algebra == alg for p in row)
        assert np.array_equal(row[0].coords, x[index]) and np.array_equal(row[1].coords, y[index])
    with pytest.raises(IndexError):
        pairs[40]
    head = pairs[:30]
    assert isinstance(head, ConeBatch) and len(head) == 30
    # each Jacobi result depends only on its own matrix
    for part, whole in zip(head.split, pairs.split):
        assert np.array_equal(part, whole[:30])
    rows = list(pairs)
    assert len(rows) == 40 and all(len(row) == 2 for row in rows)
    xs, ys = zip(*pairs)
    assert np.array_equal(np.stack([p.coords for p in xs]), x)
    assert np.array_equal(np.stack([q.coords for q in ys]), y)
    triples = sample_cone_triples(alg, 20, seed=9)
    assert len(triples) == 20 and len(triples.columns) == 3
    assert all(len(row) == 3 for row in triples)
    assert np.array_equal(triples[-1][2].coords, triples.columns[2][-1])


def test_only_the_batch_type_splits_or_inverts_its_pairs():
    # a sweep reads the split and y^(-1/2) its batch keeps, so no sweep
    # diagonalises its inputs again
    names = {"split_batch", "_inv_sqrt_batch", "_inv_sqrt", "_stacked_spectra", "_Spectrum",
             "eigvals_batch", "jacobi_eigh_batch"}
    tree = ast.parse(Path(funceq.__file__).read_text())
    owner = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ConeBatch"
    )
    inside = {id(node) for node in ast.walk(owner)}
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            assert id(node) in inside, f"funceq.py:{node.lineno}: {name} outside ConeBatch"


def test_funceq_and_harness_import_no_cycle():
    # harness owns split_batch and funceq imports it; harness imports nothing from
    # funceq, and funceq imports nothing at call time
    harness_tree = ast.parse(Path(split_batch.__code__.co_filename).read_text())
    for node in ast.walk(harness_tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "funceq" and "funceq" not in {a.name for a in node.names}
        if isinstance(node, ast.Import):
            assert not any("funceq" in a.name for a in node.names)
    tree = ast.parse(Path(funceq.__file__).read_text())
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(function):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"funceq.py:{node.lineno}: import inside {getattr(function, 'name', 'lambda')}"
                )
