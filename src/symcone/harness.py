"""Sum/quotient split of cone pairs and Monte Carlo independence experiments.

The split maps a pair (x, y) of open-cone points to

    v = x + y,    u = P(v^(-1/2)) x,

so u lives in the beta domain D and e - u is the image of y.  When x and y
are independent Wishart draws with a common scale, u and v are independent;
the experiments check that claim (and its failure under mismatched scales)
with a permutation distance-correlation test, plus a moment check on v.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dcor, rng, wishart
from .algebra import (
    Algebra,
    Element,
    _in_open_cone_ldl,
    _inv_sqrt_batch,
    _log_det_batch,
    eigvals_batch,
    eigenvalues,
    quadratic_action,
    quadratic_action_batch,
    unit,
)
from .eigh import _least_squares
from .errors import NotInCone
from .geometry import ConeElement
from .wishart import WishartParams

DEFAULT_MARGIN = 1e-9  # resample when min eig of v drops below margin * trace(v)
MIN_EXPERIMENT_SAMPLES = 1000
DEFAULT_PERMUTATIONS = 500
DEFAULT_MAX_STAT_SAMPLES = 1500
DEFAULT_SEEDS = tuple(range(20))


@dataclass(frozen=True, eq=False)
class SplitPair:
    v: ConeElement
    u: Element


def split(x, y, margin: float = DEFAULT_MARGIN) -> SplitPair:
    """Split one pair of open-cone points; both arguments may be Element or
    ConeElement.  Raises NotInCone when v = x + y sits too close to the
    boundary for a stable inverse square root."""
    xe = x.element if isinstance(x, ConeElement) else x
    ye = y.element if isinstance(y, ConeElement) else y
    try:
        v = ConeElement.certify(xe + ye, margin)
    except NotInCone as exc:
        raise NotInCone(f"sum of the pair fails the strict cone margin {margin:g}: {exc}") from None
    return SplitPair(v=v, u=quadratic_action(v.inv_sqrt(), xe))


def split_batch(algebra: Algebra, x_coords: np.ndarray, y_coords: np.ndarray):
    """Vectorized split of paired coordinate batches.

    Returns (v, u, u_comp) coordinate arrays where u_comp is the image of y
    (so u + u_comp = e identically).  Sums must pass the open-cone rule at
    EPS_CONE; no margin filtering happens here beyond that.
    """
    v = x_coords + y_coords
    s = _inv_sqrt_batch(algebra, v)
    return v, *(quadratic_action_batch(algebra, s, part) for part in (x_coords, y_coords))


@dataclass(eq=False)
class IndependenceReport:
    """Outcome of one seeded independence experiment."""

    experiment: str
    algebra: str
    p1: float
    p2: float
    scale: dict
    n_samples: int
    n_stat: int
    n_permutations: int
    seed: int
    level: float
    statistic: float
    p_value: float
    decision: str
    resampled: int
    mean_check: dict
    domain_check: dict

    def to_json_dict(self) -> dict:
        # the published document names the sample count "n"
        return {("n" if k == "n_samples" else k): v for k, v in asdict(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _draw_pairs_with_margin(params1, params2, n, seed, margin, workers):
    """Paired draws with near-boundary sums replaced from a dedicated stream,
    the margin decided on the LDL^H pivots of v = x + y; returns (x, y, resampled)."""
    x = np.array(wishart.sample(params1, n, seed, stream=0, workers=workers).coords)
    y = np.array(wishart.sample(params2, n, seed, stream=1, workers=workers).coords)
    resampled = 0
    for attempt in range(100):
        bad = ~_in_open_cone_ldl(params1.algebra, x + y, margin)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return x, y, resampled
        resampled += n_bad
        x[bad] = wishart.sample(
            params1, n_bad, seed, stream=2 * attempt, _purpose=rng.PURPOSE_RESAMPLE
        ).coords
        y[bad] = wishart.sample(
            params2, n_bad, seed, stream=2 * attempt + 1, _purpose=rng.PURPOSE_RESAMPLE
        ).coords
    raise RuntimeError("resampling did not clear the cone margin after 100 rounds")


def _run_experiment(
    name: str,
    params1: WishartParams,
    params2: WishartParams,
    scale_meta: dict,
    n: int,
    seed: int,
    level: float,
    permutations: int,
    max_stat_samples: int,
    margin: float,
    workers: int,
) -> IndependenceReport:
    if n < MIN_EXPERIMENT_SAMPLES:
        raise ValueError(f"experiments need n >= {MIN_EXPERIMENT_SAMPLES} samples")
    alg = params1.algebra
    x, y, resampled = _draw_pairs_with_margin(params1, params2, n, seed, margin, workers)
    v, u, u_comp = split_batch(alg, x, y)

    # u_comp = e - u, so its eigenvalues are 1 - eig(u); the residual checks that
    u_eigs = eigvals_batch(alg, u)
    max_u = float(u_eigs[:, -1].max())
    domain_check = {
        "min_u_eigenvalue": float(u_eigs[:, 0].min()),
        "max_u_eigenvalue": max_u,
        "min_complement_eigenvalue": 1.0 - max_u,
        "max_complement_residual": float(np.abs(u + u_comp - unit(alg).coords[None, :]).max()),
    }

    m = min(max_stat_samples, n)
    statistic, p_value = dcor.permutation_test(
        u[:m], v[:m], permutations, rng.make_generator(seed, rng.PURPOSE_PERMUTE)
    )
    decision = "reject" if p_value <= level else "non-reject"

    expected = (wishart.mean(params1) + wishart.mean(params2)).coords
    observed = v.mean(axis=0)
    # the spread of v at unit scale, so that its squares neither overflow nor
    # underflow; the power-of-two scaling in and out is exact
    _, exponent = np.frexp(np.abs(v).max())
    sigma = np.ldexp(np.ldexp(v, -exponent).std(axis=0, ddof=1), exponent) / math.sqrt(n)
    z = np.abs(observed - expected) / np.where(sigma > 0.0, sigma, 1.0)
    mean_check = {
        "expected": expected.tolist(),
        "observed": observed.tolist(),
        "sigma": sigma.tolist(),
        "max_abs_z": float(z.max()),
    }
    return IndependenceReport(
        experiment=name,
        algebra=alg.spec_string(),
        p1=params1.p,
        p2=params2.p,
        scale=scale_meta,
        n_samples=n,
        n_stat=m,
        n_permutations=permutations,
        seed=seed,
        level=level,
        statistic=statistic,
        p_value=p_value,
        decision=decision,
        resampled=resampled,
        mean_check=mean_check,
        domain_check=domain_check,
    )


def forward_experiment(
    p1: float,
    p2: float,
    a: ConeElement,
    n: int,
    seed: int,
    level: float = 0.05,
    permutations: int = DEFAULT_PERMUTATIONS,
    max_stat_samples: int = DEFAULT_MAX_STAT_SAMPLES,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> IndependenceReport:
    """Wishart inputs with a common scale: u and v are independent, so the
    test should not reject beyond its type-I level."""
    alg = a.algebra
    params1 = WishartParams(alg, p1, a)
    params2 = WishartParams(alg, p2, a)
    scale_meta = {"a": a.coords.tolist()}
    return _run_experiment(
        "forward", params1, params2, scale_meta, n, seed, level,
        permutations, max_stat_samples, margin, workers,
    )


def relative_scale_gap(a1: ConeElement, a2: ConeElement) -> float:
    """max |eig(P(a1^(-1/2)) a2) - 1|, zero iff the scales coincide."""
    return float(np.abs(eigenvalues(quadratic_action(a1.inv_sqrt(), a2.element)) - 1.0).max())


def negative_experiment(
    p1: float,
    p2: float,
    a1: ConeElement,
    a2: ConeElement,
    n: int,
    seed: int,
    level: float = 0.05,
    permutations: int = DEFAULT_PERMUTATIONS,
    max_stat_samples: int = DEFAULT_MAX_STAT_SAMPLES,
    margin: float = DEFAULT_MARGIN,
    workers: int = 1,
) -> IndependenceReport:
    """Mismatched scales break the independence of u and v; the test is
    expected to reject.  Requires a relative spectral gap of at least 0.5."""
    if a1.algebra != a2.algebra:
        raise ValueError("scales belong to different algebras")
    gap = relative_scale_gap(a1, a2)
    if gap < 0.5:
        raise ValueError(
            f"negative control needs a relative scale gap >= 0.5, got {gap:.3f}"
        )
    alg = a1.algebra
    params1 = WishartParams(alg, p1, a1)
    params2 = WishartParams(alg, p2, a2)
    scale_meta = {"a1": a1.coords.tolist(), "a2": a2.coords.tolist()}
    return _run_experiment(
        "negative", params1, params2, scale_meta, n, seed, level,
        permutations, max_stat_samples, margin, workers,
    )


@dataclass(eq=False)
class RepetitionSummary:
    experiment: str
    seeds: list[int]
    rejections: int
    p_values: list[float]
    reports: list[IndependenceReport] = field(repr=False, default_factory=list)

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    @property
    def non_rejections(self) -> int:
        return self.n_seeds - self.rejections

    @property
    def rejection_fraction(self) -> float:
        return self.rejections / self.n_seeds


def run_repetitions(experiment_fn, seeds=DEFAULT_SEEDS, **kwargs) -> RepetitionSummary:
    """Seeded repetition protocol: single runs are noisy at any level, so
    accept/reject decisions are reported as fractions over a fixed seed set."""
    reports = [experiment_fn(seed=s, **kwargs) for s in seeds]
    rejections = sum(1 for r in reports if r.decision == "reject")
    return RepetitionSummary(
        experiment=reports[0].experiment if reports else "",
        seeds=list(seeds),
        rejections=rejections,
        p_values=[r.p_value for r in reports],
        reports=reports,
    )


# ---------------------------------------------------------------------------
# density factorization
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FactorizationReport:
    """Least-squares decomposition of a Wishart log density into a linear
    term, a log-det term and a constant."""

    algebra: str
    p: float
    lambda_coords: list[float]
    k: float
    log_constant: float
    expected_lambda: list[float]
    expected_k: float
    expected_log_constant: float
    max_residual: float
    n_grid: int

    @property
    def lambda_error(self) -> float:
        return float(
            np.abs(np.asarray(self.lambda_coords) - np.asarray(self.expected_lambda)).max()
        )

    @property
    def k_error(self) -> float:
        return abs(self.k - self.expected_k)

    def to_json_dict(self) -> dict:
        return {("lambda" if k == "lambda_coords" else k): v for k, v in asdict(self).items()}


def density_factorization_check(
    p: float, a: ConeElement, grid: list[Element]
) -> FactorizationReport:
    """Fit log f(y) = <lambda, y> + k log det(y) + C over grid points in the
    open cone and compare with the closed-form parameters."""
    alg = a.algebra
    params = WishartParams(alg, p, a)
    coords = np.stack([y.coords for y in grid])
    values = wishart._log_density_batch(params, coords)
    if not np.isfinite(values).all():
        raise ValueError("grid points must lie in the open cone")
    rows = np.column_stack([coords, _log_det_batch(alg, coords), np.ones(len(coords))])
    solution, residual = _least_squares(rows, values, alg.dim + 2, "grid")
    q = alg.dim / alg.rank
    return FactorizationReport(
        algebra=alg.spec_string(),
        p=p,
        lambda_coords=[float(c) for c in solution[: alg.dim]],
        k=float(solution[alg.dim]),
        log_constant=float(solution[alg.dim + 1]),
        expected_lambda=[-float(c) for c in a.coords],
        expected_k=p - q,
        expected_log_constant=params._log_norm,
        max_residual=residual,
        n_grid=len(grid),
    )
