"""Euclidean simple Jordan algebras with an orthonormal coordinate basis.

Three families are implemented: real symmetric matrices, complex Hermitian
matrices, and the Lorentz (spin) family on R^{n+1}.  An element is stored as
a real coordinate vector in a basis that is orthonormal for the algebra's
inner product, so ``inner(x, y)`` equals the dot product of coordinates and
endomorphisms are plain real matrices.

Coordinate layout
-----------------
``SYM_REAL(r)``     ``[x_11 .. x_rr,  sqrt(2)*x_ij for i<j row-major]``
``HERM_COMPLEX(r)`` ``[x_11 .. x_rr,  sqrt(2)*Re x_ij (i<j),  sqrt(2)*Im x_ij (i<j)]``
``LORENTZ(n)``      ``[x_0, x_1, .., x_n]`` (canonical basis of R^{n+1})

Matrix kinds use the trace inner product Tr(x y); the Lorentz family uses
the Euclidean dot product on R^{n+1}.  With the dot-product convention the
Lorentz unit has squared norm 1 rather than rank 2; determinant and trace
keep their rank-2 spectral definitions (det = x_0^2 - |xbar|^2, tr = 2 x_0).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from . import eigh
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NotInCone,
    SingularElement,
)

# Relative tolerances: ``inverse`` calls x singular when its smallest
# |eigenvalue| is below EPS_SINGULAR times its largest, and x lies in the open
# cone when lambda_min(x) > EPS_CONE * tr(x), the package's one open-cone rule.
EPS_SINGULAR = 1e-12
EPS_CONE = 1e-12

_SQRT2 = math.sqrt(2.0)


class AlgebraKind(str, Enum):
    SYM_REAL = "symr"
    HERM_COMPLEX = "hermc"
    LORENTZ = "lorentz"


@dataclass(frozen=True)
class Algebra:
    """Descriptor of a Euclidean simple Jordan algebra.

    ``param`` is the matrix size r for the matrix kinds and n for the
    Lorentz algebra on R^{n+1}.
    """

    kind: AlgebraKind
    param: int

    def __post_init__(self):
        if not isinstance(self.param, int):
            object.__setattr__(self, "param", int(self.param))
        if self.kind is AlgebraKind.LORENTZ:
            if self.param < 2:
                raise ValueError("Lorentz algebra requires n >= 2")
        elif self.param < 1:
            raise ValueError("matrix algebra requires r >= 1")

    @property
    def rank(self) -> int:
        return 2 if self.kind is AlgebraKind.LORENTZ else self.param

    @property
    def dim(self) -> int:
        if self.kind is AlgebraKind.SYM_REAL:
            return self.param * (self.param + 1) // 2
        if self.kind is AlgebraKind.HERM_COMPLEX:
            return self.param * self.param
        return self.param + 1

    @property
    def peirce_degree(self) -> int:
        if self.kind is AlgebraKind.SYM_REAL:
            return 1
        if self.kind is AlgebraKind.HERM_COMPLEX:
            return 2
        return self.param - 1

    @classmethod
    def sym_real(cls, r: int) -> "Algebra":
        return cls(AlgebraKind.SYM_REAL, r)

    @classmethod
    def herm_complex(cls, r: int) -> "Algebra":
        return cls(AlgebraKind.HERM_COMPLEX, r)

    @classmethod
    def lorentz(cls, n: int) -> "Algebra":
        return cls(AlgebraKind.LORENTZ, n)

    def spec_string(self) -> str:
        return f"{self.kind.value}:{self.param}"

    @classmethod
    def from_spec(cls, spec: str) -> "Algebra":
        """Parse strings like ``symr:3``, ``hermc:2`` or ``lorentz:4``."""
        try:
            name, _, number = spec.partition(":")
            return cls(AlgebraKind(name.strip()), int(number))
        except (ValueError, KeyError) as exc:
            raise ValueError(
                f"malformed algebra spec {spec!r}; expected kind:size with kind "
                f"in {{symr, hermc, lorentz}}"
            ) from exc


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra, stored as coordinates in the fixed basis."""

    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise DimensionMismatch(
                f"coords shape {c.shape} does not match dim {self.algebra.dim} "
                f"of {self.algebra.spec_string()}"
            )
        if not np.isfinite(c).all():
            raise ValueError("element coordinates must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    # -- arithmetic in the ambient vector space -------------------------
    def __add__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)

    def __mul__(self, scalar) -> "Element":
        return Element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__

    # -- structured views ------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Hermitian-matrix view; not defined for the Lorentz family."""
        if self.algebra.kind is AlgebraKind.LORENTZ:
            raise ValueError("Lorentz elements have no matrix view; use lorentz_parts()")
        return coords_to_mats(self.algebra, self.coords)

    def lorentz_parts(self) -> tuple[float, np.ndarray]:
        if self.algebra.kind is not AlgebraKind.LORENTZ:
            raise ValueError("lorentz_parts() is only defined for the Lorentz family")
        return float(self.coords[0]), self.coords[1:].copy()

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "algebra": {"kind": self.algebra.kind.value, "r_or_n": self.algebra.param},
            "coords": [float(c) for c in self.coords],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "Element":
        alg = Algebra(AlgebraKind(data["algebra"]["kind"]), int(data["algebra"]["r_or_n"]))
        return Element(alg, np.asarray(data["coords"], dtype=float))

    @staticmethod
    def from_json(text: str) -> "Element":
        return Element.from_json_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class LinearMap:
    """An endomorphism of the algebra in the fixed coordinate basis."""

    algebra: Algebra
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        d = self.algebra.dim
        if m.shape != (d, d):
            raise DimensionMismatch(f"entries shape {m.shape}, expected ({d}, {d})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def _check_same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise AlgebraMismatch(
            f"mixed algebras: {x.algebra.spec_string()} vs {y.algebra.spec_string()}"
        )


# ---------------------------------------------------------------------------
# coordinate packing (batch-aware: leading axes are preserved)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _packing(kind: AlgebraKind, r: int):
    """Gather maps of a matrix kind's layout.  For each entry of an r x r matrix,
    ``src`` is its coordinate (for the Hermitian kind, its index in [diagonal,
    upper, conj(upper)]) and ``div`` is 1.0 on the diagonal, sqrt(2) off it; for
    each diagonal, then upper, coordinate, ``inv`` is its flat entry and ``mul``
    its multiplier, 1.0 or sqrt(2).  The Hermitian kind scales its complex upper
    part itself: a real divisor or multiplier would flip the sign of some zeros."""
    d, (iu, ju) = np.arange(r), np.triu_indices(r, 1)
    src = np.empty((r, r), dtype=np.intp)
    src[d, d], src[iu, ju] = d, r + np.arange(iu.size)
    src[ju, iu] = src[iu, ju] + (iu.size if kind is AlgebraKind.HERM_COMPLEX else 0)
    inv = np.concatenate([d * (r + 1), iu * r + ju])
    div, mul = np.where(src < r, 1.0, _SQRT2), np.where(np.arange(inv.size) < r, 1.0, _SQRT2)
    for a in (src, div, inv, mul):
        a.setflags(write=False)
    return src, div, inv, mul


def coords_to_mats(algebra: Algebra, coords: np.ndarray) -> np.ndarray:
    """Coordinates -> Hermitian matrices for the matrix kinds.

    Accepts any leading batch shape: ``(..., dim) -> (..., r, r)``.
    """
    if algebra.kind is AlgebraKind.LORENTZ:
        raise ValueError("no matrix view for the Lorentz family")
    c = np.asarray(coords, dtype=float)
    if c.shape[-1:] != (algebra.dim,):
        raise DimensionMismatch(f"coords shape {c.shape} does not end in dim {algebra.dim}")
    r = algebra.param
    src, div, _, _ = _packing(algebra.kind, r)
    if algebra.kind is AlgebraKind.SYM_REAL:
        return c[..., src] / div
    h = (r * r + r) // 2
    upper = (c[..., r:h] + 1j * c[..., h:]) / _SQRT2
    whole = np.concatenate([c[..., :r], upper, upper.conj()], axis=-1)
    del upper  # the gather's peak holds only its source and its result
    return whole[..., src]


def mats_to_coords(algebra: Algebra, mats: np.ndarray) -> np.ndarray:
    """Hermitian matrices -> coordinates, inverse of :func:`coords_to_mats`."""
    if algebra.kind is AlgebraKind.LORENTZ:
        raise ValueError("no matrix view for the Lorentz family")
    m = np.asarray(mats)
    r = algebra.param
    _, _, inv, mul = _packing(algebra.kind, r)
    flat = m.reshape(m.shape[:-2] + (r * r,))[..., inv]
    if algebra.kind is AlgebraKind.SYM_REAL:
        return flat * mul
    upper = flat[..., r:] * _SQRT2
    return np.concatenate([flat[..., :r].real, upper.real, upper.imag], axis=-1)


def element_from_matrix(algebra: Algebra, mat: np.ndarray, tol: float = 1e-10) -> Element:
    """Build an element from a (numerically) Hermitian matrix."""
    m = np.asarray(mat, dtype=complex if algebra.kind is AlgebraKind.HERM_COMPLEX else float)
    scale = max(float(np.abs(m).max()), 1.0)
    if np.abs(m - m.conj().T).max() > tol * scale:
        raise ValueError("input matrix is not Hermitian within tolerance")
    return Element(algebra, mats_to_coords(algebra, _hermitian_part(m)))


def _hermitian_part(mats: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 over the last two axes: the one symmetrisation of every
    matrix the package builds from products or spectra."""
    return (mats + _conj(np.swapaxes(mats, -1, -2))) / 2.0


def _conj(a: np.ndarray) -> np.ndarray:
    """The complex conjugate of ``a``; a real array is its own, with no copy."""
    return a.conj() if np.iscomplexobj(a) else a


# ---------------------------------------------------------------------------
# batch spectral kernels (shared by the samplers and the split transform)
# ---------------------------------------------------------------------------

def traces_batch(algebra: Algebra, coords: np.ndarray) -> np.ndarray:
    """Traces of a (N, dim) coordinate batch."""
    c = np.asarray(coords, dtype=float)
    if algebra.kind is AlgebraKind.LORENTZ:
        return 2.0 * c[:, 0]
    return c[:, : algebra.param].sum(axis=1)


class _Spectrum:
    """Jordan spectrum of a (N, dim) coordinate batch from one diagonalisation.

    ``eigs`` holds the rank-many eigenvalues of each row, ascending.  Built
    with ``vectors=True`` it keeps the eigenvectors too, so :meth:`map` applies
    spectral functions without a second pass.  The Lorentz family uses the
    closed form x0 -+ |xbar| and never calls the eigensolver.  The eigenvalues
    do not depend on ``vectors``: the rotations are the same either way.
    """

    def __init__(self, algebra: Algebra, coords: np.ndarray, vectors: bool = False):
        c = np.asarray(coords, dtype=float)
        self.algebra = algebra
        if algebra.kind is AlgebraKind.LORENTZ:
            self._xbar = c[:, 1:]
            self._nrm = np.sqrt(np.sum(self._xbar**2, axis=1))
            self.eigs = np.stack([c[:, 0] - self._nrm, c[:, 0] + self._nrm], axis=1)
            return
        mats = coords_to_mats(algebra, c)
        self.eigs, self._v = eigh.jacobi_eigh_batch(mats, compute_vectors=vectors)

    def map(self, fn) -> np.ndarray:
        """Coordinates of ``fn`` applied to each row's spectrum; the caller
        checks the domain of ``fn`` on :attr:`eigs`."""
        alg = self.algebra
        if alg.kind is AlgebraKind.LORENTZ:
            f_lo, f_hi = fn(self.eigs[:, 0]), fn(self.eigs[:, 1])
            out = np.empty((len(self.eigs), alg.dim))
            out[:, 0] = (f_hi + f_lo) / 2.0
            safe = np.where(self._nrm > 0.0, self._nrm, 1.0)
            out[:, 1:] = (((f_hi - f_lo) / 2.0) / safe)[:, None] * self._xbar
            return out
        if self._v is None:
            raise ValueError("spectrum was computed without eigenvectors")
        mats = np.einsum("nij,nj,nkj->nik", self._v, fn(self.eigs), _conj(self._v))
        return mats_to_coords(alg, _hermitian_part(mats))

    def rows(self, start: int, stop: int) -> _Spectrum:
        """The spectrum of rows start..stop-1, sliced from this one."""
        part = copy.copy(self)
        part.eigs = self.eigs[start:stop]
        if self.algebra.kind is AlgebraKind.LORENTZ:
            part._xbar, part._nrm = self._xbar[start:stop], self._nrm[start:stop]
        elif self._v is not None:
            part._v = self._v[start:stop]
        return part


def _stacked_spectra(algebra: Algebra, *batches: np.ndarray) -> list[_Spectrum]:
    """The spectra, with eigenvectors, of (N, dim) batches of one length from one
    Jacobi call on their stack: each result depends only on its own matrix."""
    n = len(batches[0])
    whole = _Spectrum(algebra, np.concatenate(batches), vectors=True)
    return [whole.rows(i * n, (i + 1) * n) for i in range(len(batches))]


def eigvals_batch(algebra: Algebra, coords: np.ndarray) -> np.ndarray:
    """Jordan eigenvalues for a (N, dim) batch, ascending along the last axis."""
    return _Spectrum(algebra, coords).eigs


def quadratic_action_batch(algebra: Algebra, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(y) x on coordinates: the package's one quadratic-action kernel.

    ``y`` has shape (dim,) or (N, dim) and ``x`` shape (N, dim) or (dim,).
    Matrix kinds evaluate the two-sided conjugation y x y on the structured
    view; the Lorentz family uses P(y) x = 2 <y, x> y - det(y) (x0, -xbar).
    Agrees with ``apply(p_map(y), x)`` without materializing the operator.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if algebra.kind is AlgebraKind.LORENTZ:
        dots = np.sum(y * x, axis=-1)
        dets = y[..., 0] ** 2 - np.sum(y[..., 1:] ** 2, axis=-1)
        flipped = x.copy()
        flipped[..., 1:] *= -1.0
        return 2.0 * dots[..., None] * y - dets[..., None] * flipped
    ym = coords_to_mats(algebra, y)
    return mats_to_coords(algebra, _hermitian_part(ym @ coords_to_mats(algebra, x) @ ym))


def _in_open_cone(eigs, eps: float = EPS_CONE):
    """The open-cone rule lambda_min > ``eps`` tr, tr > 0, on Jordan eigenvalues
    along the last axis (tr is their sum); a bool per row."""
    w = np.asarray(eigs, dtype=float)
    tr = w.sum(axis=-1)
    return (tr > 0.0) & (w.min(axis=-1) > eps * tr)


def _require_open_cone(eigs, what: str, eps: float = EPS_CONE) -> np.ndarray:
    """The smallest eigenvalue of each row of ``eigs`` (or of one 1-d spectrum);
    raises NotInCone, quoting the first failing row's and its trace after
    ``what``, when :func:`_in_open_cone` fails."""
    w = np.atleast_2d(np.asarray(eigs, dtype=float))
    inside = _in_open_cone(w, eps)
    if not inside.all():
        first = w[np.argmin(inside)]
        raise NotInCone(f"{what} (min eigenvalue {first.min():.3e}, trace {first.sum():.3e})")
    return w.min(axis=-1)


def _require_open_cone_ldl(
    algebra: Algebra, coords, what: str, error=NotInCone, eps: float = 0.0
) -> None:
    """Raises ``error`` unless every row of a (N, dim) batch passes
    :func:`_in_open_cone_ldl` at ``eps`` (at 0, every LDL^H pivot is > 0),
    quoting after ``what`` the first failing row's smallest eigenvalue and
    trace, or that the row is non-finite, which is never diagonalised."""
    inside = _in_open_cone_ldl(algebra, coords, eps)
    if not inside.all():
        row = np.asarray(coords, dtype=float)[np.argmin(inside)]
        if not np.isfinite(row).all():
            raise error(f"{what} (non-finite entries)")
        w = eigvals_batch(algebra, row[None])[0]
        raise error(f"{what} (min eigenvalue {w[0]:.3e}, trace {w.sum():.3e})")


def _ldl_pivots(algebra: Algebra, coords: np.ndarray) -> np.ndarray:
    """(N, r) pivots d_k of the unpivoted LDL^H factorisation of each row of a
    (N, dim) batch (Golub & Van Loan 4.2): a row lies in the open cone iff
    every pivot is > 0, and then log det = sum of log d_k.  The Lorentz family
    returns its closed-form eigenvalues x0 -+ |xbar|, which serve the same.
    After a pivot <= 0 the later ones are meaningless (possibly NaN)."""
    c = np.asarray(coords, dtype=float)
    if algebra.kind is AlgebraKind.LORENTZ:
        nrm = np.sqrt(np.sum(c[:, 1:] ** 2, axis=1))
        return np.stack([c[:, 0] - nrm, c[:, 0] + nrm], axis=1)
    a = coords_to_mats(algebra, c)
    r = algebra.param
    d = np.empty(a.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(r - 1):
            d[:, k] = a[:, k, k].real
            col = a[:, k + 1:, k]
            # Schur complement: A22 - a21 a21^H / d_k
            a[:, k + 1:, k + 1:] -= col[:, :, None] * (_conj(col) / d[:, k, None])[:, None, :]
    d[:, -1] = a[:, -1, -1].real
    return d


def _in_open_cone_ldl(algebra: Algebra, coords: np.ndarray, eps: float = EPS_CONE) -> np.ndarray:
    """:func:`_in_open_cone` for each row of a (N, dim) batch, with no spectrum:
    tr is linear, so the rule holds iff every LDL^H pivot of x - eps tr(x) e is > 0."""
    tr = traces_batch(algebra, coords)
    pivots = _ldl_pivots(algebra, coords - eps * tr[:, None] * _unit_coords(algebra))
    return (tr > 0.0) & (pivots > 0.0).all(axis=1)


class _Column:
    """A read-only (N, dim) batch x that keeps the LDL^H pivots of its parts
    once read: "x", "shifted" (x - EPS_CONE tr(x) e, the open-cone rule of
    :func:`_in_open_cone_ldl`) and "complement" (e - x).  A read factors the
    parts it names and does not hold yet in one :func:`_ldl_pivots` call, or
    all three if ``every_part`` is set; each log det is taken when first read."""

    def __init__(self, algebra: Algebra, coords, every_part: bool = False):
        self.algebra, self.coords = algebra, np.asarray(coords, dtype=float).view()
        self.coords.setflags(write=False)
        self._pivots, self._every_part = {}, every_part

    def pivots(self, *parts: str) -> list[np.ndarray]:
        x, e = self.coords, _unit_coords(self.algebra)
        stacks = {"x": lambda: x, "shifted": lambda: x - EPS_CONE * self.trace[:, None] * e,
                  "complement": lambda: e - x}
        wanted = stacks if self._every_part else parts
        if missing := [part for part in wanted if part not in self._pivots]:
            found = _ldl_pivots(self.algebra, np.concatenate([stacks[part]() for part in missing]))
            self._pivots.update(zip(missing, found.reshape(len(missing), len(x), found.shape[1])))
        return [self._pivots[part] for part in parts]

    trace = cached_property(lambda c: traces_batch(c.algebra, c.coords))
    inside = cached_property(lambda c: (c.trace > 0) & (c.pivots("shifted")[0] > 0).all(axis=1))
    log_det = cached_property(lambda c: np.sum(np.log(c.pivots("x")[0]), axis=-1))
    complement_log_det = cached_property(lambda c: np.sum(np.log(c.pivots("complement")[0]), -1))


def _log_det(x: Element) -> float:
    """log det of one element, through :class:`_Column`."""
    return float(_Column(x.algebra, x.coords[None]).log_det[0])


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_coords(algebra: Algebra) -> np.ndarray:
    c = np.zeros(algebra.dim)
    c[: 1 if algebra.kind is AlgebraKind.LORENTZ else algebra.param] = 1.0
    c.setflags(write=False)
    return c


def unit(algebra: Algebra) -> Element:
    """The Jordan unit e, with e o x = x for every x."""
    return Element(algebra, _unit_coords(algebra))


@lru_cache(maxsize=None)
def basis_elements(algebra: Algebra) -> tuple[Element, ...]:
    """The fixed orthonormal basis as elements."""
    eye = np.eye(algebra.dim)
    return tuple(Element(algebra, eye[k]) for k in range(algebra.dim))


def jordan_product(x: Element, y: Element) -> Element:
    """The Jordan product x o y (symmetrized matrix product; spin product)."""
    _check_same_algebra(x, y)
    alg = x.algebra
    if alg.kind is AlgebraKind.LORENTZ:
        xc, yc = x.coords, y.coords
        out = np.empty(alg.dim)
        out[0] = float(np.dot(xc, yc))
        out[1:] = xc[0] * yc[1:] + yc[0] * xc[1:]
        return Element(alg, out)
    xm = x.to_matrix()
    ym = y.to_matrix()
    return Element(alg, mats_to_coords(alg, (xm @ ym + ym @ xm) / 2.0))


def l_map(x: Element) -> LinearMap:
    """Matrix of y -> x o y in the fixed basis (symmetric by associativity)."""
    alg = x.algebra
    cols = [jordan_product(x, b).coords for b in basis_elements(alg)]
    return LinearMap(alg, np.stack(cols, axis=1))


def p_map(x: Element) -> LinearMap:
    """Quadratic representation 2 L(x)^2 - L(x^2)."""
    lx = l_map(x).entries
    lx2 = l_map(jordan_product(x, x)).entries
    return LinearMap(x.algebra, 2.0 * (lx @ lx) - lx2)


def apply(m: LinearMap, x: Element) -> Element:
    """Apply an endomorphism to an element."""
    if m.algebra != x.algebra:
        raise AlgebraMismatch(
            f"map on {m.algebra.spec_string()} applied to {x.algebra.spec_string()}"
        )
    return Element(x.algebra, m.entries @ x.coords)


def quadratic_action(y: Element, x: Element) -> Element:
    """P(y) x through :func:`quadratic_action_batch`."""
    _check_same_algebra(y, x)
    return Element(y.algebra, quadratic_action_batch(y.algebra, y.coords, x.coords))


def eigenvalues(x: Element) -> np.ndarray:
    """The rank-many Jordan eigenvalues, sorted descending."""
    return eigvals_batch(x.algebra, x.coords[None])[0][::-1].copy()


def trace(x: Element) -> float:
    return float(traces_batch(x.algebra, x.coords[None])[0])


def det(x: Element) -> float:
    if x.algebra.kind is AlgebraKind.LORENTZ:
        x0, xbar = float(x.coords[0]), x.coords[1:]
        return x0 * x0 - float(np.dot(xbar, xbar))
    return float(np.prod(eigenvalues(x)))


def inner(x: Element, y: Element) -> float:
    """Algebra inner product: Tr(x y) for matrix kinds, dot for Lorentz.

    Computed through the structured view so the coordinate-isometry property
    is a statement about the basis, not a tautology.
    """
    _check_same_algebra(x, y)
    if x.algebra.kind is AlgebraKind.LORENTZ:
        return float(np.dot(x.coords, y.coords))
    xm = x.to_matrix()
    ym = y.to_matrix()
    return float(np.real(np.sum(xm * ym.conj())))


def inverse(x: Element) -> Element:
    """Jordan inverse; raises SingularElement near the non-invertible set."""
    spectrum = _Spectrum(x.algebra, x.coords[None], vectors=True)
    w = np.abs(spectrum.eigs[0])
    if not w.min() >= EPS_SINGULAR * w.max() > 0.0:
        raise SingularElement(
            f"element of {x.algebra.spec_string()} is singular "
            f"(|eigenvalues| in [{w.min():.3e}, {w.max():.3e}])"
        )
    return Element(x.algebra, spectrum.map(lambda t: 1.0 / t)[0])


def _cone_map(spectrum: _Spectrum, fn, what: str) -> np.ndarray:
    """``fn`` of each row of a spectrum with eigenvectors, whose rows must lie
    in the open cone: the one check-and-map of every cone power."""
    _require_open_cone(spectrum.eigs, f"{what} requested outside the open cone")
    return spectrum.map(fn)


def sqrt_in_cone(x: Element) -> Element:
    """The unique square root inside the open cone."""
    spectrum = _Spectrum(x.algebra, x.coords[None], vectors=True)
    return Element(x.algebra, _cone_map(spectrum, np.sqrt, "square root")[0])


def _inv_sqrt(spectrum: _Spectrum) -> np.ndarray:
    """x^{-1/2} of each row of a spectrum; same domain as :func:`sqrt_in_cone`."""
    return _cone_map(spectrum, lambda t: 1.0 / np.sqrt(t), "inverse square root")


def _inv_sqrt_batch(algebra: Algebra, coords: np.ndarray) -> np.ndarray:
    """x^{-1/2} of each row of a (N, dim) batch, from one spectral pass."""
    return _inv_sqrt(_Spectrum(algebra, coords, vectors=True))


def inv_sqrt_in_cone(x: Element) -> Element:
    """x^{-1/2} through :func:`_inv_sqrt_batch`."""
    return Element(x.algebra, _inv_sqrt_batch(x.algebra, x.coords[None])[0])
