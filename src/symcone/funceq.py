"""Residual checks for the functional equations behind the independence
characterization.

The central object is the Olkin--Baker equation on the open cone,

    a(x) + b(y) = c(x + y) + d(P((x+y)^(-1/2)) x),

whose continuous solutions are exactly the families

    a = <lam, .> + c1 log det - kappa,
    b = <lam, .> + c2 log det + kappa,
    c = <lam, .> + (c1 + c2) log det,
    d = c1 log det(.) + c2 log det(e - .).

Nothing here solves equations symbolically: pathological (non-measurable)
solutions are not numerical objects, so the module verifies the continuous
families, measures residuals of candidate fields, and recovers parameters by
least squares.
"""

from __future__ import annotations

import json
import operator
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import wishart
from .algebra import (
    Algebra,
    Element,
    _Column,
    _in_open_cone_ldl,
    _inv_sqrt,
    _inv_sqrt_batch,
    _stacked_spectra,
    quadratic_action_batch,
)
from .eigh import _least_squares
from .errors import AlgebraMismatch, DimensionMismatch
from .geometry import ConeElement
from .harness import split_batch
from .rng import PURPOSE_PAIRS
from .wishart import WishartParams


class _Kernel:
    """A built-in map (algebra, columns of (N, dim) batches, ...) -> (N,).
    Called on elements, it evaluates the one-row batch, so the scalar and the
    batch paths share their arithmetic."""

    def __init__(self, batch):
        self.batch = batch

    def __call__(self, *points: Element) -> float:
        return float(_evaluate(self, points[0].algebra, *(p.coords[None] for p in points))[0])


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A real-valued map on the cone (domain "V") or beta domain ("D")."""

    fn: Callable[[Element], float]
    domain: str = "V"

    def __post_init__(self):
        if self.domain not in ("V", "D"):
            raise ValueError("domain tag must be 'V' or 'D'")

    def __call__(self, x: Element) -> float:
        return float(self.fn(x))


def _evaluate(f, algebra, *points) -> np.ndarray:
    """Values of a field, predicate or two-point map on the rows of (N, dim)
    batches or columns: one call of its batch kernel on columns when it is
    built in, else the row-wise callable on rebuilt elements (user maps)."""
    columns = [p if isinstance(p, _Column) else _Column(algebra, p) for p in points]
    kernel = f.fn if isinstance(f, ScalarField) else f
    if isinstance(kernel, _Kernel):
        return kernel.batch(algebra, *columns)
    rows = zip(*(column.coords for column in columns))
    return np.array([f(*(Element(algebra, row) for row in r)) for r in rows], dtype=float)


def log_det_field(coefficient: float = 1.0, domain: str = "V") -> ScalarField:
    return ScalarField(_Kernel(lambda alg, x: coefficient * x.log_det), domain)


def trace_field(coefficient: float = 1.0, domain: str = "V") -> ScalarField:
    return ScalarField(_Kernel(lambda alg, x: coefficient * x.trace), domain)


def det_over_trace_field() -> ScalarField:
    """log det(x) - r log tr(x), homogeneous of order zero."""
    return ScalarField(_Kernel(lambda alg, x: x.log_det - alg.rank * np.log(x.trace)))


def linear_field(lam: Element, domain: str = "V") -> ScalarField:
    return ScalarField(_Kernel(lambda alg, x: x.coords @ lam.coords), domain)


def with_injected_defect(
    f: ScalarField, offset: float, predicate: Callable[[Element], bool] | None = None
) -> ScalarField:
    """Add ``offset`` on part of the domain (default: where trace exceeds
    half the rank); a negative control for residual detectors."""
    where = predicate or _Kernel(lambda alg, x: x.trace > alg.rank / 2.0)

    def batch(alg, x):
        return _evaluate(f, alg, x) + np.where(_evaluate(where, alg, x) != 0.0, offset, 0.0)

    return ScalarField(_Kernel(batch), f.domain)


@dataclass(frozen=True)
class SolutionFamily:
    """Parameters (lam, c1, c2, kappa) of a continuous solution quadruple."""

    lam: Element
    c1: float
    c2: float
    kappa: float


def make_regular_solution(fam: SolutionFamily):
    """The continuous solution quadruple (a, b, c, d) of the family."""
    lam, c1, c2, kappa = fam.lam.coords, fam.c1, fam.c2, fam.kappa
    a = _Kernel(lambda alg, x: x.coords @ lam + c1 * x.log_det - kappa)
    b = _Kernel(lambda alg, x: x.coords @ lam + c2 * x.log_det + kappa)
    c = _Kernel(lambda alg, x: x.coords @ lam + (c1 + c2) * x.log_det)
    d = _Kernel(lambda alg, u: c1 * u.log_det + c2 * u.complement_log_det)
    return ScalarField(a, "V"), ScalarField(b, "V"), ScalarField(c, "V"), ScalarField(d, "D")


def wishart_dictionary(p1: float, p2: float, a0: ConeElement):
    """The log-density quadruple of the independence construction.

    a and b are the log densities of the two Wishart factors, c is the log
    density of the sum corrected by the (dim/r) log det Jacobian of the
    split, and d is the log density of the quotient: the cone-beta density
    whose normalizer is the multivariate beta function Gamma_V(p1+p2) /
    (Gamma_V(p1) Gamma_V(p2)).
    """
    alg = a0.algebra
    q = alg.dim / alg.rank
    params1 = WishartParams(alg, p1, a0)
    params2 = WishartParams(alg, p2, a0)
    params_v = WishartParams(alg, p1 + p2, a0)
    log_beta_norm = (
        wishart.log_multivariate_gamma(alg, p1 + p2)
        - wishart.log_multivariate_gamma(alg, p1)
        - wishart.log_multivariate_gamma(alg, p2)
    )
    density = wishart._log_density_batch
    a = _Kernel(lambda alg, x: density(params1, x))
    b = _Kernel(lambda alg, y: density(params2, y))
    c = _Kernel(lambda alg, v: density(params_v, v) - q * v.log_det)
    d = _Kernel(
        lambda alg, u: log_beta_norm + (p1 - q) * u.log_det + (p2 - q) * u.complement_log_det
    )
    return ScalarField(a, "V"), ScalarField(b, "V"), ScalarField(c, "V"), ScalarField(d, "D")


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class ResidualReport:
    equation: str
    algebra: str
    n_pairs: int
    max_residual: float
    mean_residual: float
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _report(equation, algebra, residuals, seed=None) -> ResidualReport:
    arr = np.asarray(residuals, dtype=float)
    return ResidualReport(
        equation=equation,
        # one string per algebra, however many reports a caller keeps
        algebra=sys.intern(algebra.spec_string()),
        n_pairs=len(arr),
        max_residual=float(arr.max()) if arr.size else 0.0,
        mean_residual=float(arr.mean()) if arr.size else 0.0,
        seed=seed,
    )


def _as_batch(tuples, what: str) -> ConeBatch:
    """A non-empty ConeBatch passes through; any other iterable of Element
    tuples, or of bare Elements as one-element rows, is stacked into one."""
    if isinstance(tuples, ConeBatch) and len(tuples):
        return tuples
    tuples = [(t,) if isinstance(t, Element) else t for t in tuples]
    if not tuples:
        raise ValueError(f"empty {what} list")
    algebra = tuples[0][0].algebra
    if any(p.algebra != algebra for t in tuples for p in t):
        raise AlgebraMismatch(f"{what} list mixes algebras")
    return ConeBatch(algebra, [np.stack(c) for c in zip(*((p.coords for p in t) for t in tuples))])


def olkin_baker_residual(
    a: ScalarField, b: ScalarField, c: ScalarField, d: ScalarField, pairs, seed=None
) -> ResidualReport:
    """max/mean of |a(x) + b(y) - c(x+y) - d(u)| over cone pairs."""
    pairs = _as_batch(pairs, "pair")
    algebra, (x, y, v, u) = pairs.algebra, pairs._factored
    residuals = np.abs(
        _evaluate(a, algebra, x) + _evaluate(b, algebra, y)
        - _evaluate(c, algebra, v) - _evaluate(d, algebra, u)
    )
    return _report("olkin-baker", algebra, residuals, seed)


def log_quadratic_residual(c: ScalarField, pairs, seed=None):
    """Residuals of the two equivalent log-quadratic identities

        c(P(y) x) = c(x) + 2 c(y)     and     c(x) = c(P(y^(-1/2)) x) + c(y).

    Returns a pair of reports (product form, conjugation form).
    """
    pairs = _as_batch(pairs, "pair")
    algebra, (x, y) = pairs.algebra, pairs.columns
    conjugated = quadratic_action_batch(algebra, pairs.y_inv_sqrt, x)
    points = np.concatenate([x, y, quadratic_action_batch(algebra, y, x), conjugated])
    cx, cy, c_product, c_conjugated = np.split(_evaluate(c, algebra, points), 4)
    return (
        _report("log-quadratic", algebra, np.abs(c_product - cx - 2.0 * cy), seed),
        _report("log-quadratic-conjugation", algebra, np.abs(cx - c_conjugated - cy), seed),
    )


def homogeneity_defect(f: ScalarField, scales, points) -> float:
    """max |f(s x) - f(x)|; zero exactly for zero-order homogeneous fields."""
    scales = [float(s) for s in scales]
    if not all(0.0 < s < np.inf for s in scales):
        raise ValueError(f"scales must be finite and positive; got {scales}")
    points = _as_batch(points, "point")
    (x,) = points.columns
    values = _evaluate(f, points.algebra, np.concatenate([x] + [s * x for s in scales]))
    values = values.reshape(len(scales) + 1, len(x))
    return float(np.abs(values[1:] - values[0]).max(initial=0.0))


def cocycle_residual(C: Callable[[Element, Element], float], triples, seed=None) -> ResidualReport:
    """Residual of C(x+y, z) + C(x, y) = C(x, y+z) + C(y, z)."""
    triples = _as_batch(triples, "triple")
    algebra, (x, y, z) = triples.algebra, triples.columns
    first = np.concatenate([x + y, x, x, y])
    second = np.concatenate([z, y, y + z, z])
    c_xy_z, c_x_y, c_x_yz, c_y_z = np.split(_evaluate(C, algebra, first, second), 4)
    return _report("cocycle", algebra, np.abs(c_xy_z + c_x_y - c_x_yz - c_y_z), seed)


def cauchy_difference(c: ScalarField) -> Callable[[Element, Element], float]:
    def batch(alg, x, y):
        x, y = x.coords, y.coords
        c_sum, c_x, c_y = np.split(_evaluate(c, alg, np.concatenate([x + y, x, y])), 3)
        return -c_sum + c_x + c_y

    return _Kernel(batch)


# ---------------------------------------------------------------------------
# Pexider recovery
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PexiderFit:
    lam: Element
    b: float
    c: float
    max_residual: float


def pexider_fit(samples) -> PexiderFit:
    """Least-squares recovery of (lam, b, c) from (x, y, k, l, n) samples of

        k(x + y) = l(x) + n(y),   k = <lam,.> + b + c,  l = <lam,.> + b,
        n = <lam,.> + c.

    When k is constant the recovery collapses to the constant solution
    l = k - c, n = c with lam = 0.
    """
    samples = list(samples)
    pairs = _as_batch([sample[:2] for sample in samples], "sample")
    algebra, (x, y) = pairs.algebra, pairs.columns
    # rows (x + y, 1, 1), (x, 1, 0), (y, 0, 1) per sample against (k, l, n)
    constants = np.broadcast_to([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], (len(x), 3, 2))
    design = np.concatenate([np.stack([x + y, x, y], axis=1), constants], axis=2)
    rhs = np.array([sample[2:] for sample in samples], dtype=float)
    solution, residual = _least_squares(
        design.reshape(-1, algebra.dim + 2), rhs.ravel(), algebra.dim + 2, "sample set"
    )
    return PexiderFit(
        lam=Element(algebra, solution[: algebra.dim]),
        b=float(solution[algebra.dim]),
        c=float(solution[algebra.dim + 1]),
        max_residual=residual,
    )


def generate_pexider_samples(algebra, lam: Element, b: float, c: float, count: int, seed: int):
    """Noiseless (x, y, k, l, n) tuples from a known additive-plus-constant
    triple, for recovery tests; <lam, .> is the coordinate dot product, the
    basis being orthonormal."""
    if lam.algebra != algebra:
        raise AlgebraMismatch(
            f"lam belongs to {lam.algebra.spec_string()}, not {algebra.spec_string()}"
        )
    pairs = sample_cone_pairs(algebra, count, seed)
    x, y = pairs.columns
    kln = np.stack([(x + y) @ lam.coords + b + c, x @ lam.coords + b, y @ lam.coords + c], axis=1)
    return [(p, q, *values) for (p, q), values in zip(pairs, kln.tolist())]


# ---------------------------------------------------------------------------
# sweep sampling
# ---------------------------------------------------------------------------

def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# up to this many pairs a batched Jacobi or LDL^H call costs mostly its fixed
# work, so a pair batch computes at once what any later sweep may read
SMALL_BATCH = 64


@dataclass(frozen=True, eq=False)
class ConeBatch(Sequence):
    """Cone points, pairs or triples as read-only (N, dim) coordinate columns.

    It is a Sequence of Element tuples: the elements of a row are built when
    it is indexed, and a slice is again a batch.  A pair batch (x, y) keeps
    its split of v = x + y, its y^(-1/2) and its x, y, v and u columns from
    first use, so every sweep over the same pairs shares one diagonalisation
    of v, one of y and one factorisation of each column; at most SMALL_BATCH
    pairs share one Jacobi call for v and y and factor all of a column at once.
    """

    algebra: Algebra
    columns: tuple[np.ndarray, ...]  # any sequence of arrays; stored as read-only copies

    def __post_init__(self):
        columns = tuple(_read_only(np.array(c, dtype=float)) for c in self.columns)
        if not columns or any(c.shape != (len(columns[0]), self.algebra.dim) for c in columns):
            raise DimensionMismatch(
                f"columns of shapes {[c.shape for c in columns]} are not (N, "
                f"{self.algebra.dim}) batches of one length"
            )
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ConeBatch(self.algebra, [c[index] for c in self.columns])
        index = operator.index(index)
        return tuple(Element(self.algebra, c[index]) for c in self.columns)

    # the spectra of v and y of a small pair batch, from one Jacobi call
    _spectra = cached_property(
        lambda b: _stacked_spectra(b.algebra, b.columns[0] + b.columns[1], b.columns[1]))

    def _root(self, part: int) -> np.ndarray:
        """v^(-1/2) (part 0) or y^(-1/2) (part 1) of the pairs, each checked on its own."""
        x, y = self.columns
        if len(self) > SMALL_BATCH:
            return _inv_sqrt_batch(self.algebra, (x + y, y)[part])
        return _inv_sqrt(self._spectra[part])

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, u, u_comp) of the pairs, as :func:`harness.split_batch` gives it."""
        x, y = self.columns
        return tuple(map(_read_only, split_batch(self.algebra, x, y, self._root(0))))

    # y^(-1/2) of each pair (x, y)
    y_inv_sqrt = cached_property(lambda b: _read_only(b._root(1)))

    # the x, y, v and u columns of the pairs, factored on first read
    _factored = cached_property(lambda b: [_Column(b.algebra, c, every_part=len(b) <= SMALL_BATCH)
                                           for c in b.columns + b.split[:2]])


@lru_cache(maxsize=None)
def _sweep_params(algebra: Algebra) -> WishartParams:
    """The sweeps' standard Wishart law, certified once per algebra: a shape
    comfortably above the density threshold, so log det stays tame."""
    return WishartParams.isotropic(algebra, algebra.dim / algebra.rank + 1.0)


def _sweep_batch(algebra, count: int, seed: int, streams, margin: float = 1e-6) -> ConeBatch:
    """One column per stream: its first ``count`` standard Wishart draws that
    pass the open-cone rule at ``margin`` (lambda_min > margin tr), so log det
    evaluations stay far from the boundary blow-up.  Stream s draws from the
    sampler streams 64 s .. 64 s + 63, a block no other stream reads; each
    attempt draws and filters every column still short in one sampler pass."""
    params = _sweep_params(algebra)
    size = max(count, 64)
    kept = [[] for _ in streams]
    short = list(range(len(streams)))
    for attempt in range(64):
        coords = wishart._draw(
            params, size, seed, [streams[i] * 64 + attempt for i in short], purpose=PURPOSE_PAIRS
        )
        inside = _in_open_cone_ldl(algebra, coords, margin).reshape(len(short), size)
        for i, rows, keep in zip(short, coords.reshape(len(short), size, -1), inside):
            kept[i].append(rows[keep])
        short = [i for i in short if sum(map(len, kept[i])) < count]
        if not short:
            break
    else:
        raise RuntimeError("cone-margin filtering rejected too many draws")
    return ConeBatch(algebra, [np.concatenate(rows)[:count] for rows in kept])


def sample_cone_points(algebra, count: int, seed: int) -> ConeBatch:
    return _sweep_batch(algebra, count, seed, range(1))


def sample_cone_pairs(algebra, count: int, seed: int) -> ConeBatch:
    return _sweep_batch(algebra, count, seed, range(2))


def sample_cone_triples(algebra, count: int, seed: int) -> ConeBatch:
    return _sweep_batch(algebra, count, seed, range(3))
