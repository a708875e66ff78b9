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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import wishart
from .algebra import (
    Element,
    _log_det,
    inner,
    inv_sqrt_in_cone,
    quadratic_action,
    trace,
    traces_batch,
    unit,
)
from .geometry import ConeElement
from .rng import PURPOSE_PAIRS
from .wishart import WishartParams

# shape of the standard draws used to populate residual sweeps: comfortably
# above the density threshold so log det stays tame
def _default_pair_shape(algebra) -> float:
    return algebra.dim / algebra.rank + 1.0


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


def log_det_field(coefficient: float = 1.0, domain: str = "V") -> ScalarField:
    return ScalarField(lambda x: coefficient * _log_det(x), domain)


def trace_field(coefficient: float = 1.0, domain: str = "V") -> ScalarField:
    return ScalarField(lambda x: coefficient * trace(x), domain)


def linear_field(lam: Element, domain: str = "V") -> ScalarField:
    return ScalarField(lambda x: inner(lam, x), domain)


def with_injected_defect(
    f: ScalarField, offset: float, predicate: Callable[[Element], bool] | None = None
) -> ScalarField:
    """Add ``offset`` on part of the domain (default: where trace exceeds
    half the rank); a negative control for residual detectors."""
    alg_half = predicate or (lambda x: trace(x) > x.algebra.rank / 2.0)
    return ScalarField(lambda x: f(x) + (offset if alg_half(x) else 0.0), f.domain)


@dataclass(frozen=True)
class SolutionFamily:
    """Parameters (lam, c1, c2, kappa) of a continuous solution quadruple."""

    lam: Element
    c1: float
    c2: float
    kappa: float


def make_regular_solution(fam: SolutionFamily):
    """The continuous solution quadruple (a, b, c, d) of the family."""
    lam, c1, c2, kappa = fam.lam, fam.c1, fam.c2, fam.kappa
    e = unit(lam.algebra)
    a = ScalarField(lambda x: inner(lam, x) + c1 * _log_det(x) - kappa, "V")
    b = ScalarField(lambda x: inner(lam, x) + c2 * _log_det(x) + kappa, "V")
    c = ScalarField(lambda x: inner(lam, x) + (c1 + c2) * _log_det(x), "V")
    d = ScalarField(lambda u: c1 * _log_det(u) + c2 * _log_det(e - u), "D")
    return a, b, c, d


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
    e = unit(alg)
    log_beta_norm = (
        wishart.log_multivariate_gamma(alg, p1 + p2)
        - wishart.log_multivariate_gamma(alg, p1)
        - wishart.log_multivariate_gamma(alg, p2)
    )
    a = ScalarField(lambda x: wishart.log_density(params1, x), "V")
    b = ScalarField(lambda y: wishart.log_density(params2, y), "V")
    c = ScalarField(lambda v: wishart.log_density(params_v, v) - q * _log_det(v), "V")
    d = ScalarField(
        lambda u: log_beta_norm + (p1 - q) * _log_det(u) + (p2 - q) * _log_det(e - u), "D"
    )
    return a, b, c, d


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ResidualReport:
    equation: str
    algebra: str
    n_pairs: int
    max_residual: float
    mean_residual: float
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "equation": self.equation,
            "algebra": self.algebra,
            "n_pairs": self.n_pairs,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _report(equation, algebra, residuals, seed=None) -> ResidualReport:
    arr = np.asarray(residuals, dtype=float)
    return ResidualReport(
        equation=equation,
        algebra=algebra.spec_string(),
        n_pairs=len(arr),
        max_residual=float(arr.max()) if arr.size else 0.0,
        mean_residual=float(arr.mean()) if arr.size else 0.0,
        seed=seed,
    )


def olkin_baker_residual(
    a: ScalarField, b: ScalarField, c: ScalarField, d: ScalarField, pairs, seed=None
) -> ResidualReport:
    """max/mean of |a(x) + b(y) - c(x+y) - d(u)| over cone pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    algebra = pairs[0][0].algebra
    # one batched split for all pairs; the field evaluations stay scalar
    from .harness import split_batch

    x_coords = np.stack([x.coords for x, _ in pairs])
    y_coords = np.stack([y.coords for _, y in pairs])
    _, u_coords, _ = split_batch(algebra, x_coords, y_coords)
    residuals = []
    for (x, y), u_row in zip(pairs, u_coords):
        u = Element(algebra, u_row)
        residuals.append(abs(a(x) + b(y) - c(x + y) - d(u)))
    return _report("olkin-baker", algebra, residuals, seed)


def log_quadratic_residual(c: ScalarField, pairs, seed=None):
    """Residuals of the two equivalent log-quadratic identities

        c(P(y) x) = c(x) + 2 c(y)     and     c(x) = c(P(y^(-1/2)) x) + c(y).

    Returns a pair of reports (product form, conjugation form).
    """
    res_product = []
    res_conjugation = []
    algebra = None
    for x, y in pairs:
        algebra = x.algebra
        res_product.append(abs(c(quadratic_action(y, x)) - c(x) - 2.0 * c(y)))
        res_conjugation.append(
            abs(c(x) - c(quadratic_action(inv_sqrt_in_cone(y), x)) - c(y))
        )
    if algebra is None:
        raise ValueError("empty pair list")
    return (
        _report("log-quadratic", algebra, res_product, seed),
        _report("log-quadratic-conjugation", algebra, res_conjugation, seed),
    )


def homogeneity_defect(f: ScalarField, scales, points) -> float:
    """max |f(s x) - f(x)|; zero exactly for zero-order homogeneous fields."""
    worst = 0.0
    for x in points:
        base = f(x)
        for s in scales:
            if s <= 0.0:
                raise ValueError("scales must be positive")
            worst = max(worst, abs(f(float(s) * x) - base))
    return worst


def cocycle_residual(C: Callable[[Element, Element], float], triples, seed=None) -> ResidualReport:
    """Residual of C(x+y, z) + C(x, y) = C(x, y+z) + C(y, z)."""
    residuals = []
    algebra = None
    for x, y, z in triples:
        algebra = x.algebra
        residuals.append(abs(C(x + y, z) + C(x, y) - C(x, y + z) - C(y, z)))
    if algebra is None:
        raise ValueError("empty triple list")
    return _report("cocycle", algebra, residuals, seed)


def cauchy_difference(c: ScalarField) -> Callable[[Element, Element], float]:
    return lambda x, y: -c(x + y) + c(x) + c(y)


# ---------------------------------------------------------------------------
# Pexider recovery
# ---------------------------------------------------------------------------

def _least_squares(rows, rhs, rank: int, what: str) -> tuple[np.ndarray, float]:
    """Least-squares solution of rows @ s = rhs and its max absolute residual;
    raises ValueError when the design has rank below ``rank``."""
    design = np.asarray(rows)
    target = np.asarray(rhs)
    solution, _, found, _ = np.linalg.lstsq(design, target, rcond=None)
    if found < rank:
        raise ValueError(f"degenerate {what}: design rank {found} < {rank}; add points")
    return solution, float(np.abs(design @ solution - target).max())


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
    rows = []
    rhs = []
    algebra = None
    for x, y, k_val, l_val, n_val in samples:
        algebra = x.algebra
        dim = algebra.dim
        rows.append(np.concatenate([(x + y).coords, [1.0, 1.0]]))
        rhs.append(k_val)
        rows.append(np.concatenate([x.coords, [1.0, 0.0]]))
        rhs.append(l_val)
        rows.append(np.concatenate([y.coords, [0.0, 1.0]]))
        rhs.append(n_val)
    if algebra is None:
        raise ValueError("empty sample list")
    solution, residual = _least_squares(rows, rhs, algebra.dim + 2, "sample set")
    return PexiderFit(
        lam=Element(algebra, solution[: algebra.dim]),
        b=float(solution[algebra.dim]),
        c=float(solution[algebra.dim + 1]),
        max_residual=residual,
    )


def generate_pexider_samples(algebra, lam: Element, b: float, c: float, count: int, seed: int):
    """Noiseless (x, y, k, l, n) tuples from a known additive-plus-constant
    triple, for recovery tests."""
    pairs = sample_cone_pairs(algebra, count, seed)
    out = []
    for x, y in pairs:
        out.append(
            (
                x,
                y,
                inner(lam, x + y) + b + c,
                inner(lam, x) + b,
                inner(lam, y) + c,
            )
        )
    return out


# ---------------------------------------------------------------------------
# sweep sampling
# ---------------------------------------------------------------------------

def sample_cone_points(algebra, count: int, seed: int, stream: int = 0, margin: float = 1e-6):
    """Standard Wishart draws filtered to a strict relative cone margin, so
    log det evaluations stay far from the boundary blow-up."""
    p0 = _default_pair_shape(algebra)
    params = WishartParams.isotropic(algebra, p0)
    points: list[Element] = []
    chunk = max(count, 64)
    attempt = 0
    while len(points) < count:
        batch = wishart.sample(
            params, chunk, seed, stream=stream * 64 + attempt, _purpose=PURPOSE_PAIRS
        )
        keep = batch.min_eigenvalues > margin * traces_batch(algebra, batch.coords)
        for row in batch.coords[keep]:
            points.append(Element(algebra, row))
            if len(points) == count:
                break
        attempt += 1
        if attempt > 64:
            raise RuntimeError("cone-margin filtering rejected too many draws")
    return points


def sample_cone_pairs(algebra, count: int, seed: int, margin: float = 1e-6):
    xs = sample_cone_points(algebra, count, seed, stream=0, margin=margin)
    ys = sample_cone_points(algebra, count, seed, stream=1, margin=margin)
    return list(zip(xs, ys))


def sample_cone_triples(algebra, count: int, seed: int, margin: float = 1e-6):
    xs = sample_cone_points(algebra, count, seed, stream=0, margin=margin)
    ys = sample_cone_points(algebra, count, seed, stream=1, margin=margin)
    zs = sample_cone_points(algebra, count, seed, stream=2, margin=margin)
    return list(zip(xs, ys, zs))
