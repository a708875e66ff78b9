import tracemalloc

import numpy as np
import pytest

from _oracles import full_gather_permutation_test, naive_distance_correlation
from symcone import dcor
from symcone.rng import PURPOSE_PERMUTE, make_generator


def test_statistic_matches_naive_oracle(rng):
    for _ in range(5):
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal((40, 2))
        assert dcor.distance_correlation(x, y) == pytest.approx(
            naive_distance_correlation(x, y), abs=1e-12
        )


def test_statistic_known_scalar_pair():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([1.0, 2.0, 9.0, 4.0, 4.0])
    assert dcor.distance_correlation(x, y) == pytest.approx(
        naive_distance_correlation(x, y), abs=1e-12
    )


def test_identical_samples_give_dcor_one(rng):
    x = rng.standard_normal((60, 2))
    assert dcor.distance_correlation(x, x) == pytest.approx(1.0, abs=1e-12)


def test_constant_sample_gives_zero():
    x = np.ones((30, 2))
    y = np.arange(30.0)
    assert dcor.distance_correlation(x, y) == 0.0


def test_permutation_test_rejects_strong_dependence(rng):
    x = rng.standard_normal((300, 2))
    y = x[:, :1] ** 2 + 0.01 * rng.standard_normal((300, 1))
    stat, p = dcor.permutation_test(x, y, 199, make_generator(0, PURPOSE_PERMUTE))
    assert p == pytest.approx(1.0 / 200.0)
    assert stat > 0.3


def test_permutation_test_accepts_independence():
    gen_data = np.random.default_rng(424242)
    x = gen_data.standard_normal((300, 2))
    y = gen_data.standard_normal((300, 2))
    _, p = dcor.permutation_test(x, y, 199, make_generator(0, PURPOSE_PERMUTE))
    assert p > 0.05


def test_permutation_test_is_deterministic(rng):
    x = rng.standard_normal((100, 2))
    y = rng.standard_normal((100, 2))
    out1 = dcor.permutation_test(x, y, 99, make_generator(7, PURPOSE_PERMUTE))
    out2 = dcor.permutation_test(x, y, 99, make_generator(7, PURPOSE_PERMUTE))
    assert out1 == out2


def test_validates_input(rng):
    with pytest.raises(ValueError, match="paired"):
        dcor.permutation_test(
            rng.standard_normal((5, 1)),
            rng.standard_normal((6, 1)),
            10,
            make_generator(0, PURPOSE_PERMUTE),
        )
    with pytest.raises(ValueError, match="permutation"):
        dcor.permutation_test(
            rng.standard_normal((5, 1)),
            rng.standard_normal((5, 1)),
            0,
            make_generator(0, PURPOSE_PERMUTE),
        )


def _both_refuse(x, y, match):
    with pytest.raises(ValueError, match=match):
        dcor.distance_correlation(x, y)
    with pytest.raises(ValueError, match=match):
        dcor.permutation_test(x, y, 5, make_generator(0, PURPOSE_PERMUTE))


def test_unpaired_samples_are_refused_with_their_lengths(rng):
    x, y = rng.standard_normal((40, 2)), rng.standard_normal((50, 2))
    _both_refuse(x, y, "samples must be paired, got 40 and 50 rows")
    _both_refuse(x[:, 0], y[:, 0], "samples must be paired, got 40 and 50 rows")


def test_empty_samples_are_refused(rng):
    _both_refuse(np.empty((0, 2)), np.empty((0, 2)), r"the first sample is empty \(shape \(0, 2\)\)")
    _both_refuse(rng.standard_normal(5), np.empty((5, 0)), r"the second sample is empty \(shape \(5, 0\)\)")


def test_samples_that_are_not_1d_or_2d_are_refused(rng):
    x = rng.standard_normal((10, 2))
    _both_refuse(x[:, :, None], x, r"the first sample must be 1-D or 2-D, got shape \(10, 2, 1\)")
    _both_refuse(x, np.float64(3.0), r"the second sample must be 1-D or 2-D, got shape \(\)")


def test_one_row_samples_give_statistic_zero():
    x, y = np.array([[1.0, 2.0]]), np.array([3.0])
    assert dcor.distance_correlation(x, y) == 0.0
    assert dcor.permutation_test(x, y, 5, make_generator(0, PURPOSE_PERMUTE)) == (0.0, 1.0)


def test_non_finite_samples_are_refused_by_name(rng):
    x = rng.standard_normal((20, 2))
    for bad, name in ((np.inf, "first"), (np.nan, "second")):
        z = x.copy()
        z[3, 1] = bad
        pair = (z, x) if name == "first" else (x, z)
        with pytest.raises(ValueError, match=f"the {name} sample has non-finite entries"):
            dcor.permutation_test(*pair, 5, make_generator(0, PURPOSE_PERMUTE))
        with pytest.raises(ValueError, match=f"the {name} sample"):
            dcor.distance_correlation(*pair)


def test_results_do_not_depend_on_the_scale_of_either_sample(rng):
    # at 2^-1000 the squared distances underflow and at 2^1015 they overflow;
    # every entry stays a normal float, so the scaled data hold the same bits
    x = rng.standard_normal((120, 3))
    y = 0.1 * x[:, :2] ** 2 + rng.standard_normal((120, 2))
    base = dcor.permutation_test(x, y, 29, make_generator(1, PURPOSE_PERMUTE))
    for ex, ey in ((-1000, 1015), (700, -3), (-500, -500), (3, 0)):
        xs, ys = np.ldexp(x, ex), np.ldexp(y, ey)
        assert dcor.permutation_test(xs, ys, 29, make_generator(1, PURPOSE_PERMUTE)) == base
        assert dcor.distance_correlation(xs, ys) == base[0]


@pytest.mark.parametrize("n", [2, 31, 32, 33, 257])
def test_packed_sum_matches_the_plain_sum(n, rng):
    x = rng.standard_normal((n, 3))
    y = x[:, :1] ** 2 + rng.standard_normal((n, 2))
    a = dcor.double_center(dcor.pairwise_distances(x))
    b = dcor.double_center(dcor.pairwise_distances(y))
    tiles = dcor._pack(a)
    for pi in (np.arange(n), rng.permutation(n), rng.permutation(n)):
        # relative to the sum of magnitudes: a permuted sum can cancel to near 0
        terms = a * b[pi][:, pi]
        assert abs(dcor._permuted_sum(tiles, b, pi) - np.sum(terms)) <= 1e-13 * np.sum(np.abs(terms))


@pytest.mark.parametrize("which", ["permutation_test", "distance_correlation"])
def test_dcor_holds_at_most_two_square_arrays(which):
    # A is packed before B is built in its buffer, and no m x m temporary is formed
    m = 1000
    data = np.random.default_rng(11)
    x = data.standard_normal((m, 3))
    y = x[:, :2] ** 2 + data.standard_normal((m, 2))
    tracemalloc.start()
    try:
        if which == "permutation_test":
            dcor.permutation_test(x, y, 2, make_generator(0, PURPOSE_PERMUTE))
        else:
            dcor.distance_correlation(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 8 * m * m, peak / (8 * m * m)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (33, 2), (100, 6), (257, 9)])
def test_double_centred_distances_are_bit_symmetric(shape, rng):
    x = rng.standard_normal(shape) * rng.uniform(0.1, 100.0, shape[1])
    for sample in (x, x[::-1], x[:, :1], np.asfortranarray(x)):
        a = dcor.double_center(dcor.pairwise_distances(sample))
        assert np.array_equal(a, a.T)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (33, 2), (100, 6), (257, 9)])
def test_in_place_centred_distances_match_the_two_array_formula(shape, rng):
    x = rng.standard_normal(shape) * rng.uniform(0.1, 100.0, shape[1])
    gram = x @ x.T
    sq = np.diagonal(gram)
    d2 = np.add.outer(sq, sq)
    gram *= 2.0
    d2 -= gram
    d = np.sqrt(np.clip(d2, 0.0, None))
    mu = d.mean(axis=0)
    t = np.add.outer(mu, mu)
    np.subtract(d, t, out=t)
    t += mu.mean()
    assert np.array_equal(dcor.double_center(dcor.pairwise_distances(x)), t)


@pytest.mark.parametrize("n", [2, 31, 32, 33, 100, 257])
def test_p_values_match_the_full_gather_reference(n):
    for seed in range(4):
        data = np.random.default_rng(1000 * n + seed)
        x = data.standard_normal((n, 3))
        # weak dependence, so that the p-values spread over (0, 1]
        y = 0.05 * x[:, :2] ** 2 + data.standard_normal((n, 2))
        _, p = dcor.permutation_test(x, y, 29, make_generator(seed, PURPOSE_PERMUTE))
        _, p_ref = full_gather_permutation_test(
            x, y, 29, make_generator(seed, PURPOSE_PERMUTE)
        )
        assert p == p_ref, (n, seed)


@pytest.mark.parametrize("shape", [(33, 1), (257, 9), (1000, 6), (1000, 9), (1500, 6)])
def test_distances_built_in_a_given_buffer_keep_their_bits(shape, rng):
    x = rng.standard_normal(shape) * rng.uniform(0.1, 100.0, shape[1])
    for sample in (x, x[::-1]):
        buf = np.full((shape[0], shape[0]), np.nan)
        d = dcor.pairwise_distances(sample, buf)
        assert d is buf
        assert d.tobytes() == dcor.pairwise_distances(sample).tobytes()
        assert d.tobytes() == d.T.copy().tobytes()


def test_both_samples_are_built_in_one_buffer(monkeypatch, rng):
    buffers = []
    plain = dcor.pairwise_distances

    def spy(x, out=None):
        buffers.append(out)
        return plain(x, out)

    monkeypatch.setattr(dcor, "pairwise_distances", spy)
    x = rng.standard_normal((70, 3))
    b = dcor._prepared(x, x[:, :2] ** 2 + rng.standard_normal((70, 2)))[1]
    assert len(buffers) == 2 and buffers[0] is not None and buffers[1] is buffers[0]
    assert b is buffers[0]


class _IdentityPermutations:
    def permutation(self, n):
        return np.arange(n)


def test_identity_permutations_give_p_one(rng):
    # the observed sum comes from the same kernel, so each identity ties exactly
    for n in (2, 33, 97, 300):
        for _ in range(4):
            x = rng.standard_normal((n, 3))
            y = x[:, :1] ** 2 + 0.01 * rng.standard_normal((n, 1))
            _, p = dcor.permutation_test(x, y, 3, _IdentityPermutations())
            assert p == 1.0


def test_statistic_agrees_with_two_mean_centring(rng):
    def two_mean(d):
        return d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()

    for n in (31, 200, 1000):
        x = rng.standard_normal((n, 6))
        y = x[:, :3] ** 2 + rng.standard_normal((n, 3))
        a = two_mean(dcor.pairwise_distances(x))
        b = two_mean(dcor.pairwise_distances(y))
        ref = np.sqrt(np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b)))
        stat, _ = dcor.permutation_test(x, y, 1, make_generator(0, PURPOSE_PERMUTE))
        assert stat == dcor.distance_correlation(x, y)
        assert abs(stat - ref) <= 1e-15 * ref
