"""Distance covariance/correlation and a permutation independence test.

Uses the biased V-statistic form: with A and B the double-centered Euclidean
distance matrices of the two samples,

    dcov^2 = mean(A * B),   dcor = sqrt(dcov^2 / sqrt(mean(A*A) mean(B*B))).

dcor vanishes exactly when the two random vectors are independent, which is
what the permutation test calibrates against.  Permuting the second sample
leaves mean(B*B) invariant, so permutation comparisons can run on dcov^2.
"""

from __future__ import annotations

import numpy as np


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    gram = x @ x.T
    sq = np.diagonal(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2)


def double_center(d: np.ndarray) -> np.ndarray:
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


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
    observed = _dcov_sq(a, b)
    statistic = _dcor_from_centered(a, b)
    exceed = 0
    for _ in range(n_permutations):
        pi = gen.permutation(n)
        permuted = b[pi[:, None], pi[None, :]]
        if _dcov_sq(a, permuted) >= observed:
            exceed += 1
    p_value = (1.0 + exceed) / (1.0 + n_permutations)
    return statistic, p_value
