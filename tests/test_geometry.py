import numpy as np
import pytest

from _utils import random_cone_element, random_element
from symcone.algebra import (
    Algebra,
    Element,
    apply,
    eigenvalues,
    element_from_matrix,
    inv_sqrt_in_cone,
    jordan_product,
    l_map,
    p_map,
    unit,
)
from symcone.eigh import jacobi_eigvals
from symcone.errors import NotInCone
from symcone.geometry import (
    ConeElement,
    contains_closure,
    contains_open,
    in_domain_D,
    positivity_pairing,
)

SYM2 = Algebra.sym_real(2)


def sym2(mat):
    return element_from_matrix(SYM2, np.asarray(mat, dtype=float))


def test_contains_open_examples():
    assert contains_open(unit(SYM2))
    assert not contains_open(sym2(np.diag([1.0, -1.0])))
    assert not contains_open(Element(SYM2, np.zeros(3)))


def test_squares_of_invertible_elements_are_in_cone(algebra, rng):
    for _ in range(100):
        x = random_element(algebra, rng)
        if np.abs(eigenvalues(x)).min() < 1e-8:
            continue
        assert contains_open(jordan_product(x, x))


def test_contains_closure_examples():
    assert contains_closure(sym2(np.diag([1.0, 0.0])))
    assert contains_closure(Element(SYM2, np.zeros(3)))
    assert not contains_closure(sym2(np.diag([-1.0, 2.0])))


def test_domain_D_examples():
    assert in_domain_D(0.5 * unit(SYM2))
    assert not in_domain_D(unit(SYM2))
    assert not in_domain_D(sym2(np.diag([0.3, 1.2])))


def test_positivity_pairing_examples():
    e = ConeElement.certify(unit(SYM2))
    assert positivity_pairing(e, sym2(np.diag([1.0, 0.0]))) == pytest.approx(1.0)
    assert positivity_pairing(e, unit(SYM2)) == pytest.approx(2.0)


def test_positivity_pairing_random(algebra, rng):
    for _ in range(1000 if algebra.dim <= 6 else 100):
        y = ConeElement.certify(random_cone_element(algebra, rng, ridge=1e-6))
        z = random_element(algebra, rng)
        x = jordan_product(z, z)
        if float(np.abs(x.coords).max()) == 0.0:
            continue
        assert positivity_pairing(y, x) > 0.0


def test_positivity_pairing_preconditions(rng):
    e = ConeElement.certify(unit(SYM2))
    with pytest.raises(ValueError, match="closed cone"):
        positivity_pairing(e, sym2(np.diag([-1.0, 1.0])))
    with pytest.raises(ValueError, match="nonzero"):
        positivity_pairing(e, Element(SYM2, np.zeros(3)))
    with pytest.raises(TypeError):
        positivity_pairing(unit(SYM2), unit(SYM2))


def test_certify_rejects_boundary():
    with pytest.raises(NotInCone):
        ConeElement.certify(sym2(np.diag([1.0, 0.0])))
    with pytest.raises(NotInCone):
        ConeElement(sym2(np.diag([1.0, 1.0])), min_eigenvalue=-1.0)


def test_certificate_matches_spectrum(algebra, rng):
    x = random_cone_element(algebra, rng, ridge=0.5)
    ce = ConeElement.certify(x)
    assert ce.min_eigenvalue == pytest.approx(float(eigenvalues(x).min()))
    assert ce.algebra == algebra
    np.testing.assert_array_equal(ce.coords, x.coords)


def test_a_certified_scale_keeps_its_inverse_square_root(algebra, rng):
    ce = ConeElement.certify(random_cone_element(algebra, rng, ridge=0.5))
    root = ce.inv_sqrt()
    assert ce.inv_sqrt() is root
    np.testing.assert_array_equal(root.coords, inv_sqrt_in_cone(ce.element).coords)


def test_p_map_preserves_cone(algebra, rng):
    # quadratic maps of invertible elements permute the open cone
    for _ in range(200 if algebra.dim <= 6 else 50):
        x = random_element(algebra, rng)
        if np.abs(eigenvalues(x)).min() < 1e-6:
            continue
        v = random_cone_element(algebra, rng, ridge=1e-9)
        assert contains_open(apply(p_map(x), v))


def test_p_map_positive_definite_on_cone(algebra, rng):
    for _ in range(50):
        x = random_cone_element(algebra, rng, ridge=1e-6)
        assert jacobi_eigvals(p_map(x).entries).min() > 0.0


def test_membership_criteria_agree(algebra, rng):
    # open-cone membership, positive-definiteness of L(x), and the sign of
    # the smallest Jordan eigenvalue must coincide on decisively signed input
    checked = 0
    for _ in range(300):
        pick = checked % 3
        if pick == 0:
            x = random_cone_element(algebra, rng, ridge=1e-6)
        elif pick == 1:
            x = random_element(algebra, rng)
        else:
            base = random_element(algebra, rng)
            w = eigenvalues(base)
            shift = float(w.min()) - 1e-6 * max(float(np.abs(w).max()), 1.0)
            x = base - shift * unit(algebra)  # min eigenvalue pinned near +1e-6
        w = eigenvalues(x)
        if np.abs(w).min() < 1e-9 * np.abs(w).max():
            continue
        by_eigs = bool(w.min() > 0.0)
        by_predicate = contains_open(x)
        by_l_map = bool(jacobi_eigvals(l_map(x).entries).min() > 0.0)
        assert by_eigs == by_predicate == by_l_map
        checked += 1
    assert checked >= 250


def test_split_image_lands_in_beta_domain(algebra, rng):
    for _ in range(50):
        x = random_cone_element(algebra, rng, ridge=1e-6)
        y = random_cone_element(algebra, rng, ridge=1e-6)
        s = inv_sqrt_in_cone(x + y)
        u = apply(p_map(s), x)
        assert in_domain_D(u)
