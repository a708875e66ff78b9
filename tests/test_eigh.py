import hashlib
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


# SHA-256 of the (w, v) bytes of jacobi_eigh_batch on the stacks below: a
# faster solver must keep every bit.  The inputs come from rng.random (exact
# in binary) and elementwise arithmetic, with no BLAS;
# real rotations use only correctly rounded operations (+, *, /, sqrt), so the
# bytes do not depend on the platform.  Complex pivots go through hypot,
# which is not correctly rounded everywhere, so none is pinned.
PINNED_DIGESTS = {
    (1, 1, False): "f230eca031cf66e58630b557ab37cac0b147d90e3a75022e240a912b7dda3d74",
    (1, 1, True): "7f282c020b9256d9f66a4bb2db3f5bcfb10cf6661375973164afca9199c48360",
    (1, 40, False): "d47bb747858d49bc4db05e14ea6d628bc0d4c2dbaefbcd33d64d2b79d5e47242",
    (1, 40, True): "11baef3277a13d0ed904261b1f01342462bee047c00dc47713569c267c58b9a8",
    (1, 1000, False): "e6e086243c6969ae1cfd941ec563a6a66d4333d4634daf8ab5f0b42b5f29143b",
    (1, 1000, True): "66331eec4439fcfca7ab76e294886362223348eaa0de506937b77fab9ee77b77",
    (2, 1, False): "63bd31df9d8e6e99c9af5185a5bdd660bc5263dce66f1f2dcd78b92605bdf870",
    (2, 1, True): "9c000661c76e4093b381048eec423daffd58d0c14d59539d0b9907ab8078d5f1",
    (2, 40, False): "712518d967a3fd3a7ce1c4c9c1e185e7ff262e6881511c584440472cb7f658f4",
    (2, 40, True): "82013482b670218aeb65f414e455e590cdd2435b53ea71b62b2c90282911d0bf",
    (2, 1000, False): "ff9af070732927a4ea36c08538b44796867e192dc12d62da81a0ad6fc7cd5032",
    (2, 1000, True): "1b1c595b6b23e78505024a46a4b9f38948537a288c633326bbba3eb0b8eea929",
    (3, 1, False): "bfb85db10978a94477fa2ac8f80736d429d97471b1eef9d0bc14b6c077ab5041",
    (3, 1, True): "658eb819081fc9c28a8a9357b0308d32c3dc3178f5442c6dfec6a42cabbb4379",
    (3, 40, False): "fae6d2bebfd9c89de4dfece688b8adbbab5de4b5bfd5b502733fa7d763779c5e",
    (3, 40, True): "7179d8baf2ef8df982414ed5a4e7acf9726e83608b4c8321b5853628bef5fab1",
    (3, 1000, False): "dcea45421329615cc18ef536740467066653b82dbe08df73b94454e495eb985d",
    (3, 1000, True): "a64f3c54dec8b16524236bb0de539d46da811ce368cc641f4109c3cafd9e99e1",
    (6, 1, False): "f32309be7bea236739f98490182cbf09e447a6159bbba00f3b756fb89e4f9373",
    (6, 1, True): "3ec2cea6b424b49594e5f973edb64b35ea5844b200b7669539008ad4a4cb6ebc",
    (6, 40, False): "dcbd5b68e82d00cbb25b91ee817f5f99e4441b8a4a0ef15a83c3df4e971963e8",
    (6, 40, True): "0dd2b73826df385e9ac3e0c1450da28d439378f310c8882bfa24d084a178822b",
    (6, 1000, False): "d5bb5b4e3faf7bb2bd366861515c113135271e739863cc8c4c02903b0eba6fdf",
    (6, 1000, True): "b7dc3b50aaeade62d08189dde3e1c7f24576b6f5b863892438f05e059b90e36d",
    ("signed zeros", False): "b1537314c54203e50bb27f190f0e21e4fdcec57ee71caf298245037858620e1b",
    ("signed zeros", True): "f3f5f104c21970247d49ed46e0d27845bbaf049aa5445fa38c1d420becb87f03",
}


def _pinned_stack(key):
    if key[0] == "signed zeros":
        d = np.full((3, 4, 4), -0.0)
        d[:, range(4), range(4)] = [[-0.0, 1.0, -0.0, -2.5], [3.0, -0.0, -0.0, 3.0], [-0.0] * 4]
        return d
    n, count, _ = key
    g = np.random.default_rng(100 * n + count).random((count, n, n)) - 0.5
    return (g + g.transpose(0, 2, 1)) / 2.0 + n * np.eye(n)


@pytest.mark.parametrize("key", list(PINNED_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_real_spectra_keep_their_bytes(key):
    vectors = key[-1]
    w, v = jacobi_eigh_batch(_pinned_stack(key), compute_vectors=vectors)
    digest = hashlib.sha256(w.tobytes() + (v.tobytes() if vectors else b""))
    assert digest.hexdigest() == PINNED_DIGESTS[key]


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
