"""Distance covariance/correlation and a permutation independence test.

Uses the biased V-statistic form: with A and B the double-centered Euclidean
distance matrices of the two samples,

    dcov^2 = mean(A * B),   dcor = sqrt(dcov^2 / sqrt(mean(A*A) mean(B*B))).

dcor vanishes exactly when the two random vectors are independent, which is
what the permutation test calibrates against.  Permuting the second sample
leaves mean(B*B) invariant, so permutation comparisons can run on the sum
of A_ij B_pi(i)pi(j); A and B are bit-symmetric, so that sum needs only the
block upper triangle.
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
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)


def double_center(d: np.ndarray) -> np.ndarray:
    """Double-centre a symmetric distance matrix with one mean vector, so the
    result is bit-symmetric whenever ``d`` is."""
    mu = d.mean(axis=0)
    return d - (mu[:, None] + mu[None, :]) + mu.mean()


def _dcov_sq(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(a * b))


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance correlation of two (n, d) feature arrays."""
    a = double_center(pairwise_distances(x))
    b = double_center(pairwise_distances(y))
    return _dcor_from_centered(a, b)


def _dcor_from_centered(a: np.ndarray, b: np.ndarray) -> float:
    vx = _dcov_sq(a, a)
    vy = _dcov_sq(b, b)
    denom = math_sqrt_safe(vx * vy)
    if denom <= 0.0:
        return 0.0
    return math_sqrt_safe(max(_dcov_sq(a, b), 0.0) / denom)


def math_sqrt_safe(v: float) -> float:
    return float(np.sqrt(v)) if v > 0.0 else 0.0


def _permuted_sum(a: np.ndarray, b: np.ndarray, pi: np.ndarray) -> float:
    """sum_ij a[i, j] * b[pi[i], pi[j]] for bit-symmetric a and b.

    Walks row blocks of BLOCK_ROWS rows and gathers only the block's tile on
    and right of the diagonal, which stays in cache: the diagonal tile counts
    once and the tile right of it twice.  ``einsum`` reduces each tile in
    numpy's own loop, so the sum is the same on every BLAS build.
    """
    n = len(pi)
    total = 0.0
    for i in range(0, n, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, n)
        blk = np.take(np.take(b, pi[i:j], axis=0), pi[i:], axis=1)
        total += np.einsum("ij,ij->", a[i:j, i:j], blk[:, : j - i])
        total += 2.0 * np.einsum("ij,ij->", a[i:j, j:], blk[:, j - i :])
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
    a = double_center(pairwise_distances(x))
    b = double_center(pairwise_distances(y))
    for name, d in (("first", a), ("second", b)):
        if not np.isfinite(d).all():
            raise ValueError(f"the {name} sample's distance matrix overflows to non-finite values")
    observed = _permuted_sum(a, b, np.arange(n))
    statistic = _dcor_from_centered(a, b)
    exceed = 0
    for _ in range(n_permutations):
        if _permuted_sum(a, b, gen.permutation(n)) >= observed:
            exceed += 1
    p_value = (1.0 + exceed) / (1.0 + n_permutations)
    return statistic, p_value
