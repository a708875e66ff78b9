"""Cyclic-Jacobi eigendecomposition for small dense Hermitian matrices.

The cone predicates and samplers need spectra that are reproducible bit for
bit across platforms and thread counts, so this module sticks to plain numpy
arithmetic with a fixed sweep order; LAPACK is never called.  Matrices here
are tiny (rank at most 8, operator size at most a few dozen), where Jacobi is
both accurate and fast enough.  Real symmetric and complex Hermitian input
take the same rotation, with a complex pivot's phase carried in its sine.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import JacobiConvergenceError

MAX_SWEEPS = 40
OFF_DIAG_TOL = 1e-15


@lru_cache(maxsize=None)
def _offdiag_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.nonzero(~np.eye(n, dtype=bool))


def _max_offdiag(b: np.ndarray) -> np.ndarray:
    rows, cols = _offdiag_index(b.shape[-1])
    return np.abs(b[:, rows, cols]).max(axis=1, initial=0.0)


def _rotate(b: np.ndarray, p: int, q: int, threshold: np.ndarray) -> None:
    """One Jacobi rotation of the (p, q) pivot of each matrix in ``b``, whose
    rows below the matrix, if any, hold its eigenvectors: the column rotation
    turns them too."""
    apq = b[:, p, q]
    # only pivots above their own matrix's threshold turn: converged matrices stay untouched
    active = np.abs(apq) > threshold
    if not active.any():
        return
    # a complex pivot |a_pq| w turns as the real |a_pq|, with w carried in s
    # (Golub & Van Loan 8.5); a real pivot keeps its sign and has no phase
    is_complex = np.iscomplexobj(b)
    mag = np.abs(apq) if is_complex else apq
    app = b[:, p, p].real
    aqq = b[:, q, q].real
    theta = np.where(active, (aqq - app) / np.where(active, 2.0 * mag, 1.0), 0.0)
    # |theta| beyond ~1e150 would overflow theta^2 and means the pivot is
    # already negligible; the clamp keeps t ~ 0 (no-op rotation) there
    np.minimum(np.maximum(theta, -1e150, out=theta), 1e150, out=theta)
    hyp = np.sqrt(theta * theta + 1.0)
    # smaller-magnitude root of t^2 + 2*theta*t - 1 = 0, written with a single
    # division whose denominator is always >= 1
    t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + hyp)
    t = np.where(active, t, 0.0)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    if is_complex:
        s = s * (apq / np.where(active, mag, 1.0))
        diag = (app - t * mag, aqq + t * mag)  # exactly real, trace-preserving
    # b <- U^H b U, U = [[c, s], [-conj(s), c]]; a real s is its own conj()
    cc = c[:, None]
    ss = s[:, None]
    sh = ss.conj()

    bp, bq = b[:, p, :], b[:, q, :]
    b[:, p, :], b[:, q, :] = cc * bp - ss * bq, sh * bp + cc * bq
    bp, bq = b[:, :, p], b[:, :, q]
    b[:, :, p], b[:, :, q] = cc * bp - sh * bq, ss * bp + cc * bq
    zeroed = np.where(active, 0.0, b[:, p, q])
    b[:, p, q] = zeroed
    b[:, q, p] = zeroed.conj()
    if is_complex:
        b[:, p, p], b[:, q, q] = diag


def jacobi_eigh_batch(mats, compute_vectors: bool = True):
    """Diagonalize a stack of real symmetric or complex Hermitian matrices by
    cyclic Jacobi sweeps.

    Parameters
    ----------
    mats : (N, n, n) array_like, each matrix symmetric, or Hermitian if complex.
    compute_vectors : accumulate eigenvector matrices as well.

    Returns ``(w, v)`` where ``w`` is real (N, n) with eigenvalues in ascending
    order and ``v`` is (N, n, n), real or complex as the input, with matching
    orthonormal columns: ``v diag(w) v^H`` rebuilds the input (``None``
    when ``compute_vectors`` is false), each a function of its own matrix
    alone.  Raises JacobiConvergenceError with a diagnostic if any matrix
    fails to reach the off-diagonal tolerance within ``MAX_SWEEPS`` sweeps.
    """
    b = np.array(mats, dtype=complex if np.iscomplexobj(mats) else float)
    if b.ndim != 3 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected a (N, n, n) stack, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("non-finite entries in eigensolver input")
    n = b.shape[-1]
    scale = np.abs(b).max(axis=(1, 2))
    threshold = np.maximum(scale, np.finfo(float).tiny) * OFF_DIAG_TOL
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    a = b
    if compute_vectors:
        # each matrix on top of its eigenvector matrix: one column rotation turns both
        b = np.concatenate([a, np.broadcast_to(np.eye(n, dtype=a.dtype), a.shape)], axis=1)
        a = b[:, :n]

    # theta in _rotate may overflow before it is clamped
    with np.errstate(over="ignore"):
        for _ in range(MAX_SWEEPS):
            if np.all(_max_offdiag(a) <= threshold):
                break
            for p, q in pairs:
                _rotate(b, p, q, threshold)
    worst = _max_offdiag(a)
    if not np.all(worst <= threshold):
        rel = float((worst / np.maximum(scale, np.finfo(float).tiny)).max())
        raise JacobiConvergenceError(
            f"Jacobi sweeps did not converge after {MAX_SWEEPS} sweeps: "
            f"max relative off-diagonal {rel:.3e}"
        )

    w = np.diagonal(a, axis1=1, axis2=2).real.copy()
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if not compute_vectors:
        return w, None
    return w, np.take_along_axis(b[:, n:], order[:, None, :], axis=2)


def jacobi_eigh(mat, compute_vectors: bool = True):
    """Single-matrix wrapper around :func:`jacobi_eigh_batch`."""
    m = np.asarray(mat)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    w, v = jacobi_eigh_batch(m[None], compute_vectors=compute_vectors)
    return w[0], (v[0] if v is not None else None)


def jacobi_eigvals_batch(mats) -> np.ndarray:
    w, _ = jacobi_eigh_batch(mats, compute_vectors=False)
    return w


def jacobi_eigvals(mat) -> np.ndarray:
    w, _ = jacobi_eigh(mat, compute_vectors=False)
    return w


def _least_squares(rows, rhs, rank: int, what: str) -> tuple[np.ndarray, float]:
    """Least-squares solution of rows @ s = rhs and its max absolute residual;
    raises ValueError when the design has rank below ``rank``.  Solves on the
    Jacobi spectrum of the small Gram matrix D^T D, so it stays LAPACK-free."""
    design = np.asarray(rows, dtype=float)
    target = np.asarray(rhs, dtype=float)
    w, v = jacobi_eigh(design.T @ design)
    keep = w > max(design.shape) * np.finfo(float).eps * w[-1]
    if keep.sum() < rank:
        raise ValueError(f"degenerate {what}: design rank {keep.sum()} < {rank}; add points")
    solution = v[:, keep] @ ((v[:, keep].T @ (design.T @ target)) / w[keep])
    return solution, float(np.abs(design @ solution - target).max())
