"""Cyclic-Jacobi eigendecomposition for small dense Hermitian matrices.

The cone predicates and samplers need spectra that are reproducible bit for
bit across platforms and thread counts, so this module sticks to plain numpy
arithmetic with a fixed sweep order; LAPACK is never called.  Matrices here
are tiny (rank at most 8, operator size at most a few dozen), where Jacobi is
both accurate and fast enough.  Real symmetric and complex Hermitian input
take the same rotation, with a complex pivot's phase carried in its sine.
"""

from __future__ import annotations

import numpy as np

from .errors import JacobiConvergenceError

MAX_SWEEPS = 40
OFF_DIAG_TOL = 1e-15


def _max_offdiag(b: np.ndarray) -> np.ndarray:
    n = b.shape[-1]
    mask = ~np.eye(n, dtype=bool)
    return np.abs(b[:, mask]).max(axis=1, initial=0.0)


def _rotate(b: np.ndarray, v: np.ndarray | None, p: int, q: int, threshold: np.ndarray) -> None:
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
    with np.errstate(over="ignore"):
        theta = np.where(active, (aqq - app) / np.where(active, 2.0 * mag, 1.0), 0.0)
    # |theta| beyond ~1e150 would overflow theta^2 and means the pivot is
    # already negligible; the clamp keeps t ~ 0 (no-op rotation) there
    theta = np.clip(theta, -1e150, 1e150)
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

    bp = b[:, p, :].copy()
    bq = b[:, q, :].copy()
    b[:, p, :] = cc * bp - ss * bq
    b[:, q, :] = sh * bp + cc * bq
    bp = b[:, :, p].copy()
    bq = b[:, :, q].copy()
    b[:, :, p] = cc * bp - sh * bq
    b[:, :, q] = ss * bp + cc * bq
    zeroed = np.where(active, 0.0, b[:, p, q])
    b[:, p, q] = zeroed
    b[:, q, p] = zeroed.conj()
    if is_complex:
        b[:, p, p], b[:, q, q] = diag

    if v is not None:
        vp = v[:, :, p].copy()
        vq = v[:, :, q].copy()
        v[:, :, p] = cc * vp - sh * vq
        v[:, :, q] = ss * vp + cc * vq


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
    n_mats, n, _ = b.shape
    v = np.tile(np.eye(n, dtype=b.dtype), (n_mats, 1, 1)) if compute_vectors else None

    scale = np.abs(b).max(axis=(1, 2))
    threshold = np.maximum(scale, np.finfo(float).tiny) * OFF_DIAG_TOL
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    for _ in range(MAX_SWEEPS):
        if np.all(_max_offdiag(b) <= threshold):
            break
        for p, q in pairs:
            _rotate(b, v, p, q, threshold)
    worst = _max_offdiag(b)
    if not np.all(worst <= threshold):
        rel = float((worst / np.maximum(scale, np.finfo(float).tiny)).max())
        raise JacobiConvergenceError(
            f"Jacobi sweeps did not converge after {MAX_SWEEPS} sweeps: "
            f"max relative off-diagonal {rel:.3e}"
        )

    w = np.diagonal(b, axis1=1, axis2=2).real.copy()
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if compute_vectors:
        v = np.take_along_axis(v, order[:, None, :], axis=2)
    return w, v


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
