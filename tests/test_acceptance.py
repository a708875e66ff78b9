"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and repetition counts are pinned here and
are not meant to be tuned.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from _oracles import sym2_wishart_normalization
from _utils import random_cone_element, random_element, rel_err
from symcone.algebra import (
    Algebra,
    Element,
    apply,
    det,
    eigenvalues,
    inner,
    jordan_product,
    l_map,
    p_map,
    unit,
)
from symcone.eigh import jacobi_eigvals
from symcone.funceq import (
    SolutionFamily,
    log_det_field,
    log_quadratic_residual,
    make_regular_solution,
    olkin_baker_residual,
    pexider_fit,
    generate_pexider_samples,
    sample_cone_pairs,
    trace_field,
    wishart_dictionary,
    with_injected_defect,
)
from symcone.geometry import ConeElement, contains_open, positivity_pairing
from symcone.harness import (
    density_factorization_check,
    forward_experiment,
    negative_experiment,
    run_repetitions,
)
from symcone.wishart import WishartParams, laplace_transform, mean, sample

SYM1 = Algebra.sym_real(1)
SYM2 = Algebra.sym_real(2)
SYM3 = Algebra.sym_real(3)

AXIOM_ALGEBRAS = [
    Algebra.sym_real(1),
    Algebra.sym_real(2),
    Algebra.sym_real(3),
    Algebra.sym_real(5),
    Algebra.herm_complex(2),
    Algebra.herm_complex(3),
    Algebra.lorentz(2),
    Algebra.lorentz(4),
]

MATRIX_ALGEBRAS = [
    Algebra.sym_real(2),
    Algebra.sym_real(3),
    Algebra.herm_complex(2),
    Algebra.herm_complex(3),
]


def _report(criterion, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def cone_unit(algebra, scale=1.0):
    return ConeElement.certify(scale * unit(algebra))


def test_criterion_01_jordan_axiom_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for algebra in AXIOM_ALGEBRAS:
        for _ in range(1000):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            z = random_element(algebra, rng)
            xy = jordan_product(x, y)
            worst = max(worst, rel_err(xy.coords, jordan_product(y, x).coords))
            x2 = jordan_product(x, x)
            lhs = jordan_product(x, jordan_product(x2, y))
            rhs = jordan_product(x2, xy)
            worst = max(worst, rel_err(lhs.coords, rhs.coords))
            assoc_l = inner(x, jordan_product(y, z))
            assoc_r = inner(xy, z)
            worst = max(worst, rel_err(assoc_l, assoc_r, floor=1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"worst relative error {worst:.2e}, {elapsed:.1f}s over "
                   f"{len(AXIOM_ALGEBRAS)} algebras x 1000 tuples")


def test_criterion_02_quadratic_representation():
    rng = np.random.default_rng(102)
    worst_conj = 0.0
    worst_det = 0.0
    worst_unit = 0.0
    for algebra in MATRIX_ALGEBRAS:
        worst_unit = max(
            worst_unit,
            float(np.abs(p_map(unit(algebra)).entries - np.eye(algebra.dim)).max()),
        )
        for _ in range(250):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            ym = y.to_matrix()
            worst_conj = max(
                worst_conj,
                rel_err(apply(p_map(y), x).to_matrix(), ym @ x.to_matrix() @ ym),
            )
            # near-singular factors make the product identity ill-conditioned;
            # the invariant quantifies over invertible pairs
            wx, wy = eigenvalues(x), eigenvalues(y)
            if min(
                np.abs(wx).min() / np.abs(wx).max(), np.abs(wy).min() / np.abs(wy).max()
            ) < 1e-2:
                continue
            worst_det = max(
                worst_det,
                rel_err(det(apply(p_map(y), x)), det(y) ** 2 * det(x), floor=1e-9),
            )
    ok = worst_conj <= 1e-12 and worst_det <= 1e-9 and worst_unit <= 1e-14
    _report(2, ok, f"conjugation {worst_conj:.2e}, det identity {worst_det:.2e}, "
                   f"P(e) defect {worst_unit:.2e}")


def test_criterion_03_cone_properties_suite():
    rng = np.random.default_rng(103)
    algebra = SYM3
    failures = 0

    for _ in range(1000):  # squares of invertible elements lie in the open cone
        x = random_element(algebra, rng)
        if np.abs(eigenvalues(x)).min() < 1e-9:
            continue
        failures += not contains_open(jordan_product(x, x))

    for _ in range(1000):  # strict positivity of the pairing on the closure
        y = ConeElement.certify(random_cone_element(algebra, rng, ridge=1e-9))
        z = random_element(algebra, rng)
        x = jordan_product(z, z)
        if float(np.abs(x.coords).max()) == 0.0:
            continue
        failures += not positivity_pairing(y, x) > 0.0

    for _ in range(1000):  # P(x) maps the open cone onto itself
        x = random_element(algebra, rng)
        if np.abs(eigenvalues(x)).min() < 1e-9:
            continue
        v = random_cone_element(algebra, rng, ridge=1e-9)
        failures += not contains_open(apply(p_map(x), v))

    for _ in range(250):  # P(x) > 0 on the cone
        x = random_cone_element(algebra, rng, ridge=1e-9)
        failures += not jacobi_eigvals(p_map(x).entries).min() > 0.0

    agreed = 0
    for k in range(1400):  # L(x)-definiteness test vs the spectral test
        pick = k % 3
        if pick == 0:
            x = random_cone_element(algebra, rng, ridge=1e-9)
        elif pick == 1:
            x = random_element(algebra, rng)
        else:
            base = random_element(algebra, rng)
            w = eigenvalues(base)
            shift = float(w.min()) - 1e-6 * max(float(np.abs(w).max()), 1.0)
            x = base - shift * unit(algebra)
        w = eigenvalues(x)
        if np.abs(w).min() < 1e-9 * np.abs(w).max():
            continue
        by_eigs = bool(w.min() > 0.0)
        if by_eigs != contains_open(x) or by_eigs != bool(
            jacobi_eigvals(l_map(x).entries).min() > 0.0
        ):
            failures += 1
        agreed += 1
    ok = failures == 0 and agreed >= 1000
    _report(3, ok, f"{failures} failures across the five cone properties "
                   f"({agreed} mixed-criterion checks)")


def test_criterion_04_wishart_normalization():
    start = time.perf_counter()
    worst = 0.0
    values = {}
    for p in (2.0, 3.0, 4.5):
        integral = sym2_wishart_normalization(p)
        values[p] = integral
        worst = max(worst, abs(integral - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(4, ok, f"max |integral - 1| = {worst:.2e} over p in (2, 3, 4.5), {elapsed:.1f}s")


def test_criterion_05_laplace_cross_check():
    worst = 0.0
    for algebra, p in ((SYM2, 2.0), (SYM3, 1.5)):
        params = WishartParams.isotropic(algebra, p)
        exact_zero = laplace_transform(params, 0.0 * unit(algebra))
        assert exact_zero == 1.0
        batch = sample(params, 100000, seed=42)
        for k in (0.1, 0.3, 1.0):
            t = k * unit(algebra)
            mc = float(np.mean(np.exp(-batch.coords @ t.coords)))
            worst = max(worst, abs(mc / laplace_transform(params, t) - 1.0))
    ok = worst <= 0.01
    _report(5, ok, f"worst Monte Carlo / formula mismatch {worst:.3%} at n=1e5")


def test_criterion_06_sampler_moments():
    rng_settings = []
    for algebra in (SYM2, SYM3, Algebra.herm_complex(2), Algebra.lorentz(3)):
        thr = algebra.dim / algebra.rank - 1.0
        anis = unit(algebra).coords.copy()
        anis[0] *= 2.0
        rng_settings += [
            (algebra, thr + 1.5, cone_unit(algebra)),
            (algebra, thr + 3.0, cone_unit(algebra, 0.5)),
            (algebra, thr + 2.0, ConeElement.certify(Element(algebra, anis))),
        ]
    worst_z = 0.0
    for algebra, p, a in rng_settings:
        params = WishartParams(algebra, p, a)
        batch = sample(params, 100000, seed=20250809)
        expected = mean(params).coords
        se = batch.coords.std(axis=0, ddof=1) / math.sqrt(len(batch))
        z = np.abs(batch.coords.mean(axis=0) - expected) / np.where(se > 0, se, 1.0)
        worst_z = max(worst_z, float(z.max()))
    moments_ok = worst_z <= 3.0

    ks_passes = 0
    critical = 1.358 / math.sqrt(100000)
    params = WishartParams.isotropic(SYM1, 1.0)
    for seed in range(20):
        batch = sample(params, 100000, seed=seed)
        d, _ = stats.kstest(batch.coords[:, 0], "gamma", args=(1.0,))
        ks_passes += d < critical
    ks_ok = ks_passes >= 18
    _report(6, moments_ok and ks_ok,
            f"worst |z| = {worst_z:.2f} over 12 settings; KS {ks_passes}/20 seeds")


@pytest.mark.slow
def test_criterion_07_forward_lukacs():
    start = time.perf_counter()
    summary = run_repetitions(
        forward_experiment,
        seeds=range(20),
        p1=4.0, p2=4.0, a=cone_unit(SYM3), n=10000, level=0.05,
    )
    elapsed = time.perf_counter() - start
    non_rejections = summary.non_rejections
    min_u = min(r.domain_check["min_u_eigenvalue"] for r in summary.reports)
    min_comp = min(r.domain_check["min_complement_eigenvalue"] for r in summary.reports)
    comp_resid = max(r.domain_check["max_complement_residual"] for r in summary.reports)
    ok = (
        non_rejections >= 18
        and min_u > 0.0
        and min_comp > 0.0
        and comp_resid <= 1e-10
        and elapsed < 300.0
    )
    _report(7, ok, f"non-rejections {non_rejections}/20, min u eig {min_u:.2e}, "
                   f"complement residual {comp_resid:.1e}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_negative_control():
    summary = run_repetitions(
        negative_experiment,
        seeds=range(20),
        p1=4.0, p2=4.0, a1=cone_unit(SYM3), a2=cone_unit(SYM3, 3.0),
        n=10000, level=0.05,
    )
    ok = summary.rejections >= 19
    _report(8, ok, f"rejections {summary.rejections}/20 with scales e vs 3e")


def test_criterion_09_olkin_baker_residuals():
    rng = np.random.default_rng(109)
    pairs = sample_cone_pairs(SYM3, 10000, seed=2025)
    families = [
        SolutionFamily(lam=0.0 * unit(SYM3), c1=0.0, c2=0.0, kappa=0.0),
        SolutionFamily(lam=-1.0 * unit(SYM3), c1=1.0, c2=2.0, kappa=0.0),
        SolutionFamily(lam=0.5 * unit(SYM3), c1=-0.6, c2=1.4, kappa=3.0),
        SolutionFamily(
            lam=Element(SYM3, rng.standard_normal(SYM3.dim)), c1=0.9, c2=-0.3, kappa=-1.5
        ),
    ]
    worst = 0.0
    for fam in families:
        report = olkin_baker_residual(*make_regular_solution(fam), pairs)
        worst = max(worst, report.max_residual)
    dictionary = wishart_dictionary(3.0, 4.0, cone_unit(SYM3))
    worst = max(worst, olkin_baker_residual(*dictionary, pairs).max_residual)

    a, b, c, d = make_regular_solution(families[1])
    defect = olkin_baker_residual(a, b, c, with_injected_defect(d, 0.1), pairs)
    ok = worst <= 1e-10 and defect.max_residual >= 0.09
    _report(9, ok, f"max residual {worst:.2e} over 4 families + Wishart dictionary "
                   f"at 1e4 pairs; injected defect detected at {defect.max_residual:.3f}")


def test_criterion_10_log_quadratic_identity():
    pairs = sample_cone_pairs(SYM3, 2000, seed=1010)
    product_form, conjugation_form = log_quadratic_residual(log_det_field(0.8), pairs)
    passing = max(product_form.max_residual, conjugation_form.max_residual)
    failing_form, _ = log_quadratic_residual(trace_field(), pairs)
    ok = passing <= 1e-9 and failing_form.max_residual >= 0.1
    _report(10, ok, f"kappa log det residual {passing:.2e}; "
                    f"trace control residual {failing_form.max_residual:.2f}")


def test_criterion_11_pexider_recovery():
    lam = Element(SYM2, np.array([0.7, -0.2, 1.1]))
    samples = generate_pexider_samples(SYM2, lam, b=1.0, c=-2.0, count=500, seed=1111)
    fit = pexider_fit(samples)
    err = max(
        float(np.abs(fit.lam.coords - lam.coords).max()),
        abs(fit.b - 1.0),
        abs(fit.c + 2.0),
    )
    const_samples = generate_pexider_samples(
        SYM2, 0.0 * unit(SYM2), b=2.25, c=-0.75, count=500, seed=1112
    )
    const_fit = pexider_fit(const_samples)
    k_value = 2.25 - 0.75
    const_err = max(
        float(np.abs(const_fit.lam.coords).max()),
        abs(const_fit.b - (k_value - const_fit.c)),
        abs(const_fit.c + 0.75),
    )
    ok = err <= 1e-8 and const_err <= 1e-10
    _report(11, ok, f"recovery error {err:.2e}; constant-corollary error {const_err:.2e}")


def test_criterion_12_density_factorization():
    worst_k = 0.0
    worst_lambda = 0.0
    for algebra, p in ((SYM2, 3.0), (SYM3, 2.5)):
        anis = unit(algebra).coords.copy()
        anis[0] *= 1.5
        anis[-1] += 0.3
        a = ConeElement.certify(Element(algebra, anis))
        params = WishartParams(algebra, p, a)
        grid = [Element(algebra, row) for row in sample(params, 200, seed=1212).coords]
        report = density_factorization_check(p, a, grid)
        assert report.expected_k == pytest.approx(p - algebra.dim / algebra.rank)
        worst_k = max(worst_k, report.k_error)
        worst_lambda = max(worst_lambda, report.lambda_error)
    ok = worst_k <= 1e-8 and worst_lambda <= 1e-8
    _report(12, ok, f"k error {worst_k:.2e}, lambda error {worst_lambda:.2e} "
                    f"at 200 grid points on symr:2 and symr:3")
