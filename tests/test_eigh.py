import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcone
from symcone import eigh, harness, wishart
from symcone.algebra import Algebra, Element, coords_to_mats
from symcone.eigh import jacobi_eigh, jacobi_eigh_batch, jacobi_eigvals_batch
from symcone.errors import JacobiConvergenceError


# a test that loops over KINDS checks real symmetric input first, then
# complex Hermitian input, which the same rotation diagonalises
KINDS = (float, complex)


def _random_symmetric(rng, n, count=1, kind=float):
    a = rng.standard_normal((count, n, n))
    if kind is complex:
        a = a + 1j * rng.standard_normal((count, n, n))
    return (a + a.transpose(0, 2, 1).conj()) / 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 15])
def test_eigenvalues_match_lapack_oracle(rng, n):
    for kind in KINDS:
        mats = _random_symmetric(rng, n, count=40, kind=kind)
        w = jacobi_eigvals_batch(mats)
        assert w.dtype == float
        expected = np.linalg.eigvalsh(mats)
        np.testing.assert_allclose(w, expected, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_eigenvectors_reconstruct_input(rng, n):
    for kind in KINDS:
        mats = _random_symmetric(rng, n, count=25, kind=kind)
        w, v = jacobi_eigh_batch(mats)
        assert v.dtype == kind
        rebuilt = np.einsum("nij,nj,nkj->nik", v, w, v.conj())
        np.testing.assert_allclose(rebuilt, mats, atol=1e-12 * np.abs(mats).max())
        gram = np.einsum("nji,njk->nik", v.conj(), v)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(n), gram.shape), atol=1e-13)


def test_real_pivot_keeps_its_sign():
    # equal diagonal and a negative pivot: theta = 0, and the rotation turns
    # by +pi/4 from the signed pivot (a phase -1 would turn it the other way)
    w, v = jacobi_eigh(np.array([[1.0, -2.0], [-2.0, 1.0]]))
    np.testing.assert_allclose(w, [-1.0, 3.0], rtol=1e-15)
    h = 1.0 / np.sqrt(2.0)
    np.testing.assert_array_equal(v, [[h, h], [h, -h]])


def test_complex_pivot_rotates_its_phase():
    # [[0, i], [-i, 0]] has eigenvalues -1, 1 with vectors (1, i) and (1, -i)
    w, v = jacobi_eigh(np.array([[0.0, 1j], [-1j, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(v.conj().T @ np.array([[1, 1], [1j, -1j]])),
                               np.sqrt(2.0) * np.eye(2), atol=1e-15)


def test_diagonal_matrices_are_exact():
    for kind in KINDS:
        mats = np.array([np.diag([3.0, -1.0, 2.0]), np.diag([0.0, 0.0, 5.0])], dtype=kind)
        w, v = jacobi_eigh_batch(mats)
        np.testing.assert_array_equal(
            w, np.sort(np.array([[3.0, -1.0, 2.0], [0.0, 0.0, 5.0]]), axis=1)
        )
        # no rotations happen, so the vectors are signed permutations of the basis
        assert set(np.abs(v).ravel()) == {0.0, 1.0}


def test_zero_and_single_entry():
    w, v = jacobi_eigh_batch(np.zeros((2, 4, 4)))
    assert (w == 0).all()
    w, v = jacobi_eigh_batch(np.full((1, 1, 1), 7.0))
    assert w[0, 0] == 7.0


def test_single_matrix_wrapper(rng):
    m = _random_symmetric(rng, 5)[0]
    w, v = jacobi_eigh(m)
    np.testing.assert_allclose((v * w) @ v.T, m, atol=1e-13)


def test_determinism(rng):
    for kind in KINDS:
        mats = _random_symmetric(rng, 4, count=10, kind=kind)
        w1, v1 = jacobi_eigh_batch(mats)
        w2, v2 = jacobi_eigh_batch(mats)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "symr:5", "hermc:4"])
def test_each_result_depends_only_on_its_own_matrix(spec):
    # Wishart draws converge after different sweep counts, so a batch keeps
    # sweeping after many of its members have converged
    alg = Algebra.from_spec(spec)
    draws = wishart.sample(wishart.WishartParams.isotropic(alg, 4.0), 300, 7)
    mats = coords_to_mats(alg, draws.coords)
    order = np.random.default_rng(3).permutation(len(mats))
    w, v = jacobi_eigh_batch(mats)
    wp, vp = jacobi_eigh_batch(mats[order])
    for i in range(40):
        w1, v1 = jacobi_eigh_batch(mats[i:i + 1])
        j = int(np.flatnonzero(order == i)[0])
        for w2, v2 in ((w[i], v[i]), (wp[j], vp[j])):
            assert w1[0].tobytes() == w2.tobytes() and v1[0].tobytes() == v2.tobytes()


@pytest.mark.parametrize("spec", ["symr:3", "hermc:3", "lorentz:4"])
def test_scalar_split_is_a_row_of_split_batch(spec):
    alg = Algebra.from_spec(spec)
    params = wishart.WishartParams.isotropic(alg, 4.0)
    x = wishart.sample(params, 100, 11, stream=0).coords
    y = wishart.sample(params, 100, 11, stream=1).coords
    _, u, _ = harness.split_batch(alg, x, y)
    for i in range(0, 100, 9):
        pair = harness.split(Element(alg, x[i]), Element(alg, y[i]))
        assert pair.u.coords.tobytes() == u[i].tobytes()


def test_convergence_failure_is_loud(rng, monkeypatch):
    mats = _random_symmetric(rng, 4, count=3)
    monkeypatch.setattr(eigh, "MAX_SWEEPS", 0)
    with pytest.raises(JacobiConvergenceError, match="off-diagonal"):
        jacobi_eigh_batch(mats)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_eigh_batch(np.zeros((3, 2)))
    for bad in (np.nan, np.inf, complex(1.0, np.nan), complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigh_batch(np.full((1, 2, 2), bad))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
)
def test_reconstruction_property(flat):
    # the first n*n floats are the real part, the rest the imaginary part
    n = int(np.sqrt(len(flat) // 2))
    parts = np.asarray(flat, dtype=float).reshape(2, n, n)
    for raw in (parts[0], parts[0] + 1j * parts[1]):
        mat = (raw + raw.T.conj()) / 2.0
        w, v = jacobi_eigh(mat)
        scale = max(np.abs(mat).max(), 1.0)
        assert np.abs((v * w) @ v.T.conj() - mat).max() <= 1e-12 * scale


def test_package_never_calls_lapack():
    # every spectrum and every fit goes through the Jacobi sweeps above, so
    # results do not depend on the BLAS/LAPACK build
    for path in sorted(Path(symcone.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not re.search(r"linalg|scipy", line), f"{path.name}:{number}: {line.strip()}"


def test_spectra_are_built_and_checked_in_algebra_and_geometry():
    # every other module asks for a map (x^(-1/2), a certified scale's powers)
    # or a pivot decision, so each array's spectrum has one owner
    names = re.compile(r"\b(_Spectrum|_in_open_cone|_require_open_cone)\b")
    for path in sorted(Path(symcone.__file__).parent.glob("*.py")):
        if path.name not in ("algebra.py", "geometry.py"):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                assert not names.search(line), f"{path.name}:{number}: {line.strip()}"
