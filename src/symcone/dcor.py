"""Distance covariance/correlation and a permutation independence test.

Uses the biased V-statistic form: with A and B the double-centered Euclidean
distance matrices of the two samples,

    dcov^2 = mean(A * B),   dcor = sqrt(dcov^2 / sqrt(mean(A*A) mean(B*B))).

dcor vanishes exactly when the two random vectors are independent, which is
what the permutation test calibrates against.  Permuting the second sample
leaves mean(B*B) invariant, so permutation comparisons can run on the sum
of A_ij B_pi(i)pi(j); A and B are bit-symmetric, so that sum needs only the
block upper triangle of A, packed once per test.

Each sample is first multiplied by the power of two that brings its largest
magnitude into [0.5, 1).  The product is exact, and dcor and every sum the
test compares scale exactly with it, so results do not depend on the units
of the data, and distances neither overflow nor underflow.
"""

from __future__ import annotations

import numpy as np

# rows per block of the permutation kernel: a 32 x m float64 tile stays in L2
BLOCK_ROWS = 32


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    # on a C-contiguous x, numpy forms x @ x.T with syrk and mirrors one
    # triangle, so the result is bit-symmetric (a reversed view would not be)
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    gram = x @ x.T
    sq = np.diagonal(gram)
    # (sq_i + sq_j) - 2 gram_ij, built in one m x m array besides gram
    d2 = np.add.outer(sq, sq)
    gram *= 2.0
    d2 -= gram
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2, out=d2)


def double_center(d: np.ndarray) -> np.ndarray:
    """Double-centre a symmetric distance matrix with one mean vector, so the
    result is bit-symmetric whenever ``d`` is."""
    mu = d.mean(axis=0)
    t = np.add.outer(mu, mu)
    np.subtract(d, t, out=t)
    t += mu.mean()
    return t


def _normalised(x: np.ndarray, name: str) -> np.ndarray:
    """``x`` times the power of two that brings its largest magnitude into
    [0.5, 1); ValueError, naming the sample, on a non-finite entry."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"the {name} sample has non-finite entries")
    _, exponent = np.frexp(np.abs(x).max(initial=0.0))
    return np.ldexp(x, -exponent)


def _centred_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = double_center(pairwise_distances(_normalised(x, "first")))
    return a, double_center(pairwise_distances(_normalised(y, "second")))


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance correlation of two (n, d) feature arrays."""
    return _dcor_from_centered(*_centred_pair(x, y))


def _dcor_from_centered(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.sqrt(float(np.mean(a * a)) * float(np.mean(b * b))))
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(float(np.mean(a * b)), 0.0) / denom))


def _pack(a: np.ndarray) -> list[np.ndarray]:
    """The block upper triangle of a bit-symmetric ``a``: for each block of
    BLOCK_ROWS rows, one contiguous copy of ``a[i:j, i:]`` whose part right of
    the diagonal tile is doubled (exactly), since it stands for both sides."""
    tiles = []
    for i in range(0, len(a), BLOCK_ROWS):
        tile = a[i : i + BLOCK_ROWS, i:].copy()
        tile[:, len(tile) :] *= 2.0
        tiles.append(tile)
    return tiles


def _permuted_sum(tiles: list[np.ndarray], b: np.ndarray, pi: np.ndarray) -> float:
    """sum_ij a[i, j] * b[pi[i], pi[j]] for bit-symmetric a and b, with a
    packed by :func:`_pack`.

    Gathers each block's tile of the permuted B on and right of the diagonal,
    which stays in cache.  ``einsum`` reduces each tile in numpy's own loop,
    so the sum is the same on every BLAS build.
    """
    total = 0.0
    for k, tile in enumerate(tiles):
        i = k * BLOCK_ROWS
        blk = b.take(pi[i : i + len(tile)], axis=0).take(pi[i:], axis=1)
        total += np.einsum("ij,ij->", tile, blk)
    return float(total)


def permutation_test(
    x: np.ndarray,
    y: np.ndarray,
    n_permutations: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """Permutation p-value for independence of paired samples.

    Returns (dcor statistic, p-value) with the standard add-one estimate
    p = (1 + #{permuted >= observed}) / (1 + n_permutations), which keeps the
    test valid (slightly conservative) at any permutation count.
    """
    if len(x) != len(y):
        raise ValueError("samples must be paired")
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    n = len(x)
    a, b = _centred_pair(x, y)
    statistic = _dcor_from_centered(a, b)
    tiles = _pack(a)
    del a
    observed = _permuted_sum(tiles, b, np.arange(n))
    exceed = 0
    for _ in range(n_permutations):
        if _permuted_sum(tiles, b, gen.permutation(n)) >= observed:
            exceed += 1
    p_value = (1.0 + exceed) / (1.0 + n_permutations)
    return statistic, p_value
