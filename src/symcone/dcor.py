"""Distance covariance/correlation and a permutation independence test.

Uses the biased V-statistic form: with A and B the double-centered Euclidean
distance matrices of the two samples,

    dcov^2 = mean(A * B),   dcor = sqrt(dcov^2 / sqrt(mean(A*A) mean(B*B))).

dcor vanishes exactly when the two random vectors are independent, which is
what the permutation test calibrates against.  Permuting the second sample
leaves mean(B*B) invariant, so permutation comparisons can run on the sum
of A_ij B_pi(i)pi(j); A and B are bit-symmetric, so that sum needs only the
block upper triangle of A, packed once per test.

Each sample's distances are built and centred in place, in one m x m
buffer.  A is packed as soon as it is centred and dropped before B is
built, and the statistic's three sums are taken from the packed tiles and
B, so the test holds B and half of A, never both matrices.

Each sample is first multiplied by the power of two that brings its largest
magnitude into [0.5, 1).  The product is exact, and dcor and every sum the
test compares scale exactly with it, so results do not depend on the units
of the data, and distances neither overflow nor underflow.
"""

from __future__ import annotations

import math

import numpy as np

# rows per block of the permutation kernel: a 32 x m float64 tile stays in L2
BLOCK_ROWS = 32


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    # on a C-contiguous x, numpy forms x @ x.T with syrk and mirrors one
    # triangle, so the result is bit-symmetric (a reversed view would not be)
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    d = x @ x.T
    sq = np.diagonal(d).copy()
    # (sq_i + sq_j) - 2 gram_ij, in the Gram buffer one block of rows at a time
    for i in range(0, len(d), BLOCK_ROWS):
        rows = d[i : i + BLOCK_ROWS]
        rows *= 2.0
        np.subtract(np.add.outer(sq[i : i + BLOCK_ROWS], sq), rows, out=rows)
    np.clip(d, 0.0, None, out=d)
    return np.sqrt(d, out=d)


def double_center(d: np.ndarray) -> np.ndarray:
    """Double-centre a symmetric distance matrix in place, overwriting and
    returning ``d``.  One mean vector serves rows and columns, so the result
    is bit-symmetric whenever ``d`` is."""
    mu = d.mean(axis=0)
    for i in range(0, len(d), BLOCK_ROWS):
        d[i : i + BLOCK_ROWS] -= np.add.outer(mu[i : i + BLOCK_ROWS], mu)
    d += mu.mean()
    return d


def _normalised(x: np.ndarray, name: str) -> np.ndarray:
    """``x`` times the power of two that brings its largest magnitude into
    [0.5, 1); ValueError, naming the sample, on a sample that is not a
    non-empty 1-D or 2-D array of finite entries."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"the {name} sample must be 1-D or 2-D, got shape {x.shape}")
    if x.size == 0:
        raise ValueError(f"the {name} sample is empty (shape {x.shape})")
    if not np.isfinite(x).all():
        raise ValueError(f"the {name} sample has non-finite entries")
    _, exponent = np.frexp(np.abs(x).max())
    return np.ldexp(x, -exponent)


def _prepared(x: np.ndarray, y: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, float]:
    """The packed tiles of A, B, and the dcor statistic.  A lives only until
    it is packed, so it is gone before B is built."""
    x, y = _normalised(x, "first"), _normalised(y, "second")
    if len(x) != len(y):
        raise ValueError(f"samples must be paired, got {len(x)} and {len(y)} rows")
    tiles = _pack(double_center(pairwise_distances(x)))
    b = double_center(pairwise_distances(y))
    return tiles, b, _statistic(tiles, b)


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance correlation of two (n, d) feature arrays."""
    return _prepared(x, y)[2]


def _statistic(tiles: list[np.ndarray], b: np.ndarray) -> float:
    """dcor from A packed by :func:`_pack` and from B.

    Each block's products pass through one small buffer and are summed
    pairwise; the block sums are added exactly.  A tile's part right of the
    diagonal holds 2A and stands for both sides, so it adds half its square.
    """
    n = len(b)
    buf = np.empty(len(tiles[0]) * n)
    aa, bb, ab = [], [], []
    for k, tile in enumerate(tiles):
        i = k * BLOCK_ROWS
        r, c = tile.shape
        t = np.square(tile, out=buf[: r * c].reshape(r, c))
        aa += [np.add.reduce(t[:, :r], axis=None), 0.5 * np.add.reduce(t[:, r:], axis=None)]
        ab.append(np.add.reduce(np.multiply(tile, b[i : i + r, i:], out=t), axis=None))
        bb.append(np.add.reduce(np.square(b[i : i + r], out=buf[: r * n].reshape(r, n)), axis=None))
    nn = float(n * n)
    denom = math.sqrt(math.fsum(aa) / nn * (math.fsum(bb) / nn))
    if denom <= 0.0:
        return 0.0
    return math.sqrt(max(math.fsum(ab) / nn, 0.0) / denom)


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
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    tiles, b, statistic = _prepared(x, y)
    n = len(b)
    observed = _permuted_sum(tiles, b, np.arange(n))
    exceed = 0
    for _ in range(n_permutations):
        if _permuted_sum(tiles, b, gen.permutation(n)) >= observed:
            exceed += 1
    p_value = (1.0 + exceed) / (1.0 + n_permutations)
    return statistic, p_value
