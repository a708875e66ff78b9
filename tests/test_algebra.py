import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_jordan_product
from _utils import random_cone_element, random_element, rel_err
from symcone import wishart
from symcone.algebra import (
    Algebra,
    AlgebraKind,
    Element,
    EPS_CONE,
    LinearMap,
    _Column,
    _in_open_cone,
    _in_open_cone_ldl,
    _ldl_pivots,
    _unit_coords,
    apply,
    coords_to_mats,
    det,
    eigenvalues,
    eigvals_batch,
    element_from_matrix,
    inner,
    inv_sqrt_in_cone,
    inverse,
    jordan_product,
    l_map,
    mats_to_coords,
    p_map,
    quadratic_action_batch,
    sqrt_in_cone,
    trace,
    traces_batch,
    unit,
)
from symcone.errors import AlgebraMismatch, DimensionMismatch, NotInCone, SingularElement
from symcone.funceq import sample_cone_pairs
from symcone.geometry import ConeElement, contains_open

SYM2 = Algebra.sym_real(2)
HERM2 = Algebra.herm_complex(2)
LOR2 = Algebra.lorentz(2)


def sym2(mat):
    return element_from_matrix(SYM2, np.asarray(mat, dtype=float))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "algebra,rank,dim,degree",
    [
        (Algebra.sym_real(1), 1, 1, 1),
        (Algebra.sym_real(2), 2, 3, 1),
        (Algebra.sym_real(5), 5, 15, 1),
        (Algebra.herm_complex(2), 2, 4, 2),
        (Algebra.herm_complex(3), 3, 9, 2),
        (Algebra.lorentz(2), 2, 3, 1),
        (Algebra.lorentz(4), 2, 5, 3),
    ],
)
def test_descriptor_invariants(algebra, rank, dim, degree):
    assert (algebra.rank, algebra.dim, algebra.peirce_degree) == (rank, dim, degree)
    if algebra.kind is not AlgebraKind.LORENTZ:
        r, d = algebra.rank, algebra.peirce_degree
        assert algebra.dim == r + d * r * (r - 1) // 2


def test_spec_string_round_trip(algebra):
    assert Algebra.from_spec(algebra.spec_string()) == algebra


@pytest.mark.parametrize("bad", ["symr", "symr:x", "cube:3", "lorentz:1", "symr:0", ""])
def test_bad_specs_rejected(bad):
    with pytest.raises(ValueError):
        Algebra.from_spec(bad)


# ---------------------------------------------------------------------------
# unit and product
# ---------------------------------------------------------------------------

def test_unit_examples():
    np.testing.assert_array_equal(unit(SYM2).to_matrix(), np.eye(2))
    np.testing.assert_array_equal(unit(LOR2).coords, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(unit(HERM2).to_matrix(), np.eye(2, dtype=complex))


def test_unit_is_neutral(algebra, rng):
    e = unit(algebra)
    for _ in range(20):
        x = random_element(algebra, rng)
        np.testing.assert_allclose(jordan_product(e, x).coords, x.coords, atol=1e-14)


def test_sym2_product_matches_dense_oracle():
    x = sym2(np.diag([1.0, 2.0]))
    y = sym2([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(
        jordan_product(x, y).to_matrix(), [[0.0, 1.5], [1.5, 0.0]], atol=1e-15
    )


def test_lorentz_product_formula():
    # direct substitution in the spin-product formula
    x = Element(LOR2, [1.0, 1.0, 0.0])
    y = Element(LOR2, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(jordan_product(x, y).coords, [1.0, 1.0, 1.0])


def test_product_matches_dense_oracle_random(rng):
    for algebra in (SYM2, Algebra.sym_real(3), HERM2, Algebra.herm_complex(3)):
        for _ in range(25):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            expected = dense_jordan_product(x.to_matrix(), y.to_matrix())
            np.testing.assert_allclose(jordan_product(x, y).to_matrix(), expected, atol=1e-13)


def test_algebra_mismatch_raises(rng):
    with pytest.raises(AlgebraMismatch):
        jordan_product(random_element(SYM2, rng), random_element(LOR2, rng))


def test_commutativity_and_jordan_identity(algebra, rng):
    for _ in range(50):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        xy = jordan_product(x, y)
        np.testing.assert_allclose(xy.coords, jordan_product(y, x).coords, atol=1e-13)
        x2 = jordan_product(x, x)
        lhs = jordan_product(x, jordan_product(x2, y))
        rhs = jordan_product(x2, xy)
        assert rel_err(lhs.coords, rhs.coords) < 1e-10


# ---------------------------------------------------------------------------
# linear and quadratic representations
# ---------------------------------------------------------------------------

def test_l_map_of_unit_is_identity(algebra):
    np.testing.assert_allclose(l_map(unit(algebra)).entries, np.eye(algebra.dim), atol=1e-15)


def test_l_map_agrees_with_product(algebra, rng):
    for _ in range(15):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        np.testing.assert_allclose(
            apply(l_map(x), y).coords, jordan_product(x, y).coords, atol=1e-13
        )


def test_l_map_is_symmetric(algebra, rng):
    for _ in range(10):
        m = l_map(random_element(algebra, rng)).entries
        np.testing.assert_allclose(m, m.T, atol=1e-13)


def test_l_map_eigenvalues_example():
    # frozen from the dense eigensolver oracle on the 3x3 representation
    m = l_map(sym2(np.diag([1.0, 2.0]))).entries
    np.testing.assert_allclose(np.linalg.eigvalsh(m), [1.0, 1.5, 2.0], atol=1e-14)


def test_p_map_of_unit_is_identity(algebra):
    np.testing.assert_allclose(p_map(unit(algebra)).entries, np.eye(algebra.dim), atol=1e-14)


def test_p_map_matches_two_sided_conjugation():
    y = sym2(np.diag([1.0, 2.0]))
    x = sym2([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(
        apply(p_map(y), x).to_matrix(), [[1.0, 2.0], [2.0, 4.0]], atol=1e-13
    )


@pytest.mark.parametrize("algebra", [SYM2, Algebra.sym_real(3), HERM2], ids=lambda a: a.spec_string())
def test_p_map_conjugation_random(algebra, rng):
    for _ in range(100):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        ym = y.to_matrix()
        expected = ym @ x.to_matrix() @ ym
        assert rel_err(apply(p_map(y), x).to_matrix(), expected) < 1e-12


def test_quadratic_action_matches_operator(algebra, rng):
    from symcone.algebra import quadratic_action, quadratic_action_batch

    for _ in range(25):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        via_operator = apply(p_map(y), x)
        assert rel_err(quadratic_action(y, x).coords, via_operator.coords) < 1e-12
    # the batch kernel, with y shared as (dim,) and per row as (N, dim)
    xs = [random_element(algebra, rng) for _ in range(8)]
    ys = [random_element(algebra, rng) for _ in range(8)]
    x_coords = np.stack([x.coords for x in xs])
    shared = quadratic_action_batch(algebra, ys[0].coords, x_coords)
    per_row = quadratic_action_batch(algebra, np.stack([y.coords for y in ys]), x_coords)
    assert shared.shape == per_row.shape == x_coords.shape
    for x, y, got_shared, got_row in zip(xs, ys, shared, per_row):
        assert rel_err(got_shared, apply(p_map(ys[0]), x).coords) < 1e-12
        assert rel_err(got_row, apply(p_map(y), x).coords) < 1e-12


def test_determinant_composition_example():
    y = sym2(np.diag([1.0, 2.0]))
    x = sym2([[2.0, 1.0], [1.0, 2.0]])
    assert abs(det(apply(p_map(y), x)) - 12.0) < 1e-9


def test_determinant_composition_random(algebra, rng):
    for _ in range(30):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        lhs = det(apply(p_map(y), x))
        rhs = det(y) ** 2 * det(x)
        assert rel_err(lhs, rhs, floor=1e-9) < 1e-9


def test_apply_checks_algebra(rng):
    m = LinearMap(SYM2, np.eye(3))
    with pytest.raises(AlgebraMismatch):
        apply(m, random_element(LOR2, rng))
    with pytest.raises(DimensionMismatch):
        LinearMap(SYM2, np.eye(4))


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

def test_eigenvalues_examples(algebra):
    w = eigenvalues(unit(algebra))
    np.testing.assert_allclose(w, np.ones(algebra.rank), atol=1e-15)


def test_eigenvalues_sym2_diag():
    np.testing.assert_allclose(eigenvalues(sym2(np.diag([3.0, 5.0]))), [5.0, 3.0])


def test_eigenvalues_lorentz_closed_form_vs_isomorphism(rng):
    # (x0, x1, x2) <-> [[x0+x1, x2], [x2, x0-x1]] is a Jordan isomorphism
    for _ in range(50):
        c = rng.standard_normal(3)
        w = eigenvalues(Element(LOR2, c))
        iso = np.array([[c[0] + c[1], c[2]], [c[2], c[0] - c[1]]])
        np.testing.assert_allclose(w, np.linalg.eigvalsh(iso)[::-1], atol=1e-12)
    np.testing.assert_allclose(eigenvalues(Element(LOR2, [2.0, 1.0, 0.0])), [3.0, 1.0])


def test_det_trace_examples():
    assert det(unit(SYM2)) == pytest.approx(1.0, abs=1e-15)
    assert trace(unit(SYM2)) == 2.0
    assert trace(unit(Algebra.herm_complex(3))) == 3.0
    assert trace(unit(LOR2)) == 2.0
    x = sym2([[2.0, 1.0], [1.0, 2.0]])
    assert det(x) == pytest.approx(3.0, rel=1e-12)
    assert trace(x) == pytest.approx(4.0)
    assert det(Element(LOR2, [2.0, 1.0, 0.0])) == pytest.approx(3.0)


def test_det_is_product_trace_is_sum(algebra, rng):
    for _ in range(20):
        x = random_element(algebra, rng)
        w = eigenvalues(x)
        assert rel_err(det(x), np.prod(w), floor=1e-10) < 1e-10
        # relative to the spectral radius: a trace near 0 from eigenvalues of
        # order 1 is only good to the rounding of their sum
        assert abs(trace(x) - np.sum(w)) < 1e-12 * np.abs(w).max()


# ---------------------------------------------------------------------------
# LDL^H pivots: the open-cone certificate and log det
# ---------------------------------------------------------------------------

def _exact_log_det_3x3(mat):
    """log det of a 3x3 float matrix from its exact rational determinant."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(float(v)) for v in row] for row in mat]
    return math.log(float(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)))


def test_log_det_is_accurate_on_ill_conditioned_points():
    sym3 = Algebra.sym_real(3)
    # P(y) x over sweep points at the default margin: condition numbers up to ~1e7
    pairs = sample_cone_pairs(sym3, 2000, seed=7)
    x, y = (np.stack([p.coords for p in column]) for column in zip(*pairs))
    points = quadratic_action_batch(sym3, y, x)
    exact = np.array([_exact_log_det_3x3(m) for m in coords_to_mats(sym3, points)])
    w = eigvals_batch(sym3, points)
    kappa = w[:, -1] / w[:, 0]
    assert kappa.max() > 1e6
    err = np.abs(_Column(sym3, points).log_det - exact)
    # backward stable: a few eps times the condition number, plus the final rounding
    assert (err <= 8.0 * np.finfo(float).eps * (kappa + np.abs(exact))).all()
    assert err.max() < 1e-10


def _shift_to_ratio(alg, x, ratio):
    """x - s e, row by row, with lambda_min(x - s e) = ratio * tr(x - s e)."""
    s = (eigvals_batch(alg, x)[:, 0] - ratio * traces_batch(alg, x)) / (1.0 - ratio * alg.rank)
    return x - s[:, None] * _unit_coords(alg)


def _raises(fn, *args):
    try:
        fn(*args)
    except NotInCone:
        return True
    return False


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "symr:5", "lorentz:4"])
def test_ldl_certificate_agrees_with_eigenvalues(spec):
    alg = Algebra.from_spec(spec)
    # just above the shape threshold, some raw draws touch the boundary
    p = wishart.shape_threshold(alg) + 0.05
    draws = wishart._standard_chunk_coords(alg, p, 4000, np.random.default_rng(5))
    w = eigvals_batch(alg, draws)
    by_pivots = _in_open_cone_ldl(alg, draws, 0.0)
    # both verdicts are rounding noise where lambda_min is ~eps of the radius
    decided = np.abs(w[:, 0]) > 1e-13 * np.abs(w).max(axis=1)
    assert (~decided).any()
    assert np.array_equal(by_pivots[decided], _in_open_cone(w, 0.0)[decided])
    # the one rule lambda_min > eps tr on both sides of its boundary, through
    # every entry point: shifted to lambda_min = (1 +- 1e-3) eps tr (at eps = 0,
    # to +-1e-9 tr); the scalar entry points on the first 100 rows of each side
    clear = draws[w[:, 0] > 1e-6 * w[:, -1]]
    params = wishart.WishartParams.isotropic(alg, p)
    for eps in (0.0, EPS_CONE, 1e-9, 1e-6):
        for factor, inside in ((1.0 + 1e-3, True), (1.0 - 1e-3, False)):
            ratio = eps * factor if eps else (1e-9 if inside else -1e-9)
            shifted = _shift_to_ratio(alg, clear, ratio)
            assert (_in_open_cone(eigvals_batch(alg, shifted), eps) == inside).all()
            assert (_in_open_cone_ldl(alg, shifted, eps) == inside).all()
            for row in shifted[:100]:
                x = Element(alg, row)
                assert contains_open(x, eps) == inside
                assert _raises(ConeElement.certify, x, eps) != inside
                if eps == EPS_CONE:
                    assert _raises(sqrt_in_cone, x) != inside
                    assert np.isfinite(wishart.log_density(params, x)) == inside


def test_ldl_pivots_off_the_cone():
    indefinite = np.array([[1.0, -2.0, 3.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(_ldl_pivots(Algebra.sym_real(3), indefinite), [[1.0, -2.0, 3.0]])
    # a zero pivot divides by zero inside the kernel, silently; no pivot list passes
    singular = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 2.0 ** 0.5]])
    with np.errstate(all="raise"):
        d = _ldl_pivots(Algebra.sym_real(2), singular)
    assert not (d > 0.0).all(axis=1).any()


# ---------------------------------------------------------------------------
# inverse and square root
# ---------------------------------------------------------------------------

def test_inverse_examples():
    e = unit(SYM2)
    np.testing.assert_allclose(inverse(e).coords, e.coords, atol=1e-15)
    np.testing.assert_allclose(
        inverse(sym2(np.diag([1.0, 2.0]))).to_matrix(), np.diag([1.0, 0.5]), atol=1e-14
    )
    with pytest.raises(SingularElement):
        inverse(sym2(np.diag([1.0, 0.0])))


def test_inverse_contract(algebra, rng):
    e = unit(algebra)
    for _ in range(25):
        x = random_cone_element(algebra, rng, ridge=0.1)
        np.testing.assert_allclose(
            jordan_product(x, inverse(x)).coords, e.coords, atol=1e-10
        )
        # P(x) x^{-1} = x
        assert rel_err(apply(p_map(x), inverse(x)).coords, x.coords) < 1e-10


def test_lorentz_inverse_closed_form(rng):
    for _ in range(20):
        c = rng.standard_normal(3)
        x = Element(LOR2, c)
        d = c[0] ** 2 - c[1] ** 2 - c[2] ** 2
        if abs(d) < 1e-3:
            continue
        np.testing.assert_allclose(
            inverse(x).coords, np.array([c[0], -c[1], -c[2]]) / d, atol=1e-12
        )


def test_sqrt_examples():
    e = unit(SYM2)
    np.testing.assert_allclose(sqrt_in_cone(e).coords, e.coords, atol=1e-15)
    np.testing.assert_allclose(
        sqrt_in_cone(sym2(np.diag([4.0, 9.0]))).to_matrix(), np.diag([2.0, 3.0]), atol=1e-13
    )
    with pytest.raises(NotInCone):
        sqrt_in_cone(sym2(np.diag([1.0, -1.0])))


def test_sqrt_squares_back(algebra, rng):
    for _ in range(100):
        x = random_cone_element(algebra, rng, ridge=1e-3)
        s = sqrt_in_cone(x)
        assert rel_err(jordan_product(s, s).coords, x.coords) < 1e-10


def test_inv_sqrt_consistency(algebra, rng):
    for _ in range(10):
        x = random_cone_element(algebra, rng, ridge=0.1)
        np.testing.assert_allclose(
            inv_sqrt_in_cone(x).coords, sqrt_in_cone(inverse(x)).coords, atol=1e-11
        )


@pytest.mark.parametrize("spec", ["symr:3", "hermc:2"])
def test_inv_sqrt_is_one_spectral_pass(spec, rng, monkeypatch):
    # the domain check and the map share one diagonalisation, of the r x r
    # matrix itself: Hermitian input is not embedded in a real 2r x 2r one
    from symcone import eigh

    calls = []
    original = eigh.jacobi_eigh_batch

    def counting(mats, *args, **kwargs):
        calls.append(np.shape(mats))
        return original(mats, *args, **kwargs)

    monkeypatch.setattr(eigh, "jacobi_eigh_batch", counting)
    x = random_cone_element(Algebra.from_spec(spec), rng, ridge=0.1)
    s = inv_sqrt_in_cone(x)
    r = x.algebra.param
    assert calls == [(1, r, r)]
    monkeypatch.undo()
    assert rel_err(jordan_product(s, jordan_product(s, x)).coords, unit(x.algebra).coords) < 1e-10


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def test_inner_examples():
    assert inner(unit(SYM2), unit(SYM2)) == pytest.approx(2.0)
    assert inner(unit(Algebra.herm_complex(3)), unit(Algebra.herm_complex(3))) == pytest.approx(3.0)
    # dot-product convention: the Lorentz unit has norm 1, not rank 2
    assert inner(unit(LOR2), unit(LOR2)) == pytest.approx(1.0)
    assert inner(sym2(np.diag([1.0, 2.0])), sym2([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(0.0)


def test_inner_associativity(algebra, rng):
    for _ in range(100):
        x, y, z = (random_element(algebra, rng) for _ in range(3))
        lhs = inner(x, jordan_product(y, z))
        rhs = inner(jordan_product(x, y), z)
        assert rel_err(lhs, rhs, floor=1e-12) < 1e-12


def test_coordinate_isometry(algebra, rng):
    for _ in range(50):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        assert rel_err(inner(x, y), float(x.coords @ y.coords), floor=1e-13) < 1e-13


# ---------------------------------------------------------------------------
# views and serialization
# ---------------------------------------------------------------------------

def test_matrix_view_round_trip(algebra, rng):
    if algebra.kind is AlgebraKind.LORENTZ:
        x = random_element(algebra, rng)
        x0, xbar = x.lorentz_parts()
        np.testing.assert_array_equal(np.concatenate([[x0], xbar]), x.coords)
        return
    x = random_element(algebra, rng)
    back = element_from_matrix(algebra, x.to_matrix())
    np.testing.assert_array_equal(back.coords, x.coords)


def _scatter_coords_to_mats(algebra, coords):
    """The zeros-and-scatter packing the cached gather maps replaced."""
    c = np.asarray(coords, dtype=float)
    r = algebra.param
    d, (iu, ju) = np.arange(r), np.triu_indices(r, 1)
    n_off = iu.size
    if algebra.kind is AlgebraKind.SYM_REAL:
        m = np.zeros(c.shape[:-1] + (r, r))
        m[..., d, d] = c[..., :r]
        off = c[..., r:] / math.sqrt(2.0)
        m[..., iu, ju] = off
        m[..., ju, iu] = off
        return m
    m = np.zeros(c.shape[:-1] + (r, r), dtype=complex)
    m[..., d, d] = c[..., :r]
    upper = (c[..., r:r + n_off] + 1j * c[..., r + n_off:]) / math.sqrt(2.0)
    m[..., iu, ju] = upper
    m[..., ju, iu] = upper.conj()
    return m


def _scatter_mats_to_coords(algebra, mats):
    """The two-gather unpacking the cached gather maps replaced."""
    m = np.asarray(mats)
    r = algebra.param
    d, (iu, ju) = np.arange(r), np.triu_indices(r, 1)
    if algebra.kind is AlgebraKind.SYM_REAL:
        return np.concatenate([m[..., d, d], m[..., iu, ju] * math.sqrt(2.0)], axis=-1)
    upper = m[..., iu, ju] * math.sqrt(2.0)
    return np.concatenate([m[..., d, d].real, upper.real, upper.imag], axis=-1)


def _with_special_values(rng, shape):
    """Normal draws, half of them replaced by signed zeros, subnormals or +-1e300."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300])
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(special, size=int(pick.sum()))
    return x


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead", [(), (7,), (2, 3)], ids=str)
@pytest.mark.parametrize(
    "spec", [f"symr:{r}" for r in range(1, 6)] + [f"hermc:{r}" for r in range(1, 5)]
)
def test_packing_matches_the_scatter_reference_bit_for_bit(spec, lead, rng):
    algebra = Algebra.from_spec(spec)
    r = algebra.param
    for _ in range(5):
        coords = _with_special_values(rng, lead + (algebra.dim,))
        mats = coords_to_mats(algebra, coords)
        assert _same_bits(mats, _scatter_coords_to_mats(algebra, coords))
        assert _same_bits(mats_to_coords(algebra, mats), _scatter_mats_to_coords(algebra, mats))
        # any square input, not only a Hermitian one, is read the same way
        raw = _with_special_values(rng, lead + (r, r))
        if algebra.kind is AlgebraKind.HERM_COMPLEX:
            raw = raw.astype(complex)
            raw.imag = _with_special_values(rng, lead + (r, r))
        assert _same_bits(mats_to_coords(algebra, raw), _scatter_mats_to_coords(algebra, raw))
    # the round trip scales the off-diagonal by 1/sqrt(2) and back
    coords = rng.standard_normal(lead + (algebra.dim,))
    back = mats_to_coords(algebra, coords_to_mats(algebra, coords))
    np.testing.assert_allclose(back, coords, rtol=4e-16, atol=0.0)
    assert np.array_equal(back[..., :r], coords[..., :r])


@pytest.mark.parametrize("spec,size", [("symr:3", 7), ("symr:3", 4), ("hermc:2", 5), ("hermc:2", 3)])
def test_packing_rejects_coordinates_of_another_dimension(spec, size):
    with pytest.raises(DimensionMismatch, match=f"{size}"):
        coords_to_mats(Algebra.from_spec(spec), np.ones((2, size)))


def test_packing_has_no_lorentz_view():
    with pytest.raises(ValueError, match="Lorentz"):
        coords_to_mats(LOR2, np.zeros(3))
    with pytest.raises(ValueError, match="Lorentz"):
        mats_to_coords(LOR2, np.zeros((2, 2)))


def test_element_from_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        element_from_matrix(SYM2, np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_coords_validation():
    with pytest.raises(DimensionMismatch):
        Element(SYM2, [1.0, 2.0])
    with pytest.raises(ValueError):
        Element(SYM2, [1.0, np.nan, 0.0])


def test_elements_are_immutable(rng):
    x = random_element(SYM2, rng)
    with pytest.raises(ValueError):
        x.coords[0] = 3.0


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["symr:1", "symr:3", "hermc:2", "lorentz:3"]),
    st.data(),
)
def test_json_round_trip_is_bit_exact(spec, data):
    algebra = Algebra.from_spec(spec)
    coords = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=algebra.dim,
            max_size=algebra.dim,
        )
    )
    x = Element(algebra, coords)
    again = Element.from_json(x.to_json())
    assert again.algebra == algebra
    assert np.array_equal(again.coords, x.coords)


def test_json_layout_matches_published_schema(rng):
    doc = json.loads(random_element(HERM2, rng).to_json())
    assert set(doc) == {"algebra", "coords"}
    assert set(doc["algebra"]) == {"kind", "r_or_n"}
