"""Wishart distributions on symmetric cones.

For shape p and scale a in the open cone, the distribution has density

    det(a)^p / Gamma_V(p) * det(y)^(p - dim/r) * exp(-<a, y>)

on the open cone (p above dim/r - 1; below that threshold the distribution
is singular and out of scope here), and Laplace transform

    E[exp(-<t, Y>)] = det(e + P(a^(-1/2)) t)^(-p),

the symmetrized, basis-independent form of det(1 + t a^(-1))^(-p).

``Gamma_V`` is the multivariate gamma of the cone,

    Gamma_V(p) = (2 pi)^((dim - r)/2) * prod_j Gamma(p - (j-1) d / 2),

which is exact for the matrix kinds in this package's orthonormal basis.
The Lorentz family uses the Euclidean dot product instead of the trace form,
which rescales the integral; the closed-form correction factor
2^(2p - 1 - (n-1)/2) is applied there (and pinned down by the normalization
tests).  For the same reason the Lorentz mean is 2 p a^(-1) rather than
p a^(-1): the gradient of log det at the unit is (rank / <e, e>) e.

Sampling is exact (no rejection): a Bartlett factorization for the matrix
kinds and a gamma/beta/sphere factorization for the Lorentz family, driven
by counter-based streams so batches are reproducible and parallel-safe.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .algebra import (
    EPS_CONE,
    Algebra,
    AlgebraKind,
    Element,
    _hermitian_part,
    _in_open_cone_ldl,
    _log_det,
    _log_det_batch,
    _require_open_cone_ldl,
    _unit_coords,
    inner,
    mats_to_coords,
    quadratic_action,
    quadratic_action_batch,
    unit,
)
from .errors import OutOfRegion, PoleError
from .geometry import ConeElement

LN_2PI = math.log(2.0 * math.pi)


def shape_threshold(algebra: Algebra) -> float:
    """The density-existence threshold dim/r - 1 (= (r-1) d / 2)."""
    return algebra.dim / algebra.rank - 1.0


def log_multivariate_gamma(algebra: Algebra, p: float) -> float:
    """log Gamma_V(p); raises PoleError when any gamma argument is <= 0."""
    r = algebra.rank
    d = algebra.peirce_degree
    args = [p - 0.5 * j * d for j in range(r)]
    if min(args) <= 0.0:
        raise PoleError(
            f"multivariate gamma pole: p={p} gives argument {min(args)} <= 0 "
            f"(requires p > {(r - 1) * d / 2})"
        )
    value = 0.5 * (algebra.dim - r) * LN_2PI + sum(math.lgamma(a) for a in args)
    if algebra.kind is AlgebraKind.LORENTZ:
        # dot-product convention on R^{n+1}; see the module docstring
        value += (2.0 * p - 1.0 - 0.5 * (algebra.param - 1)) * math.log(2.0)
    return value


def _exp(log_value: float, what: str) -> float:
    """exp(log_value); OverflowError, quoting the log value, past a float's range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"{what} overflows: log value {log_value:.6g}") from None


def multivariate_gamma(algebra: Algebra, p: float) -> float:
    return _exp(log_multivariate_gamma(algebra, p), "multivariate gamma")


def mean_scale_factor(algebra: Algebra) -> float:
    """E[Y] = factor * p * a^(-1); 1 for trace-form kinds, 2 for Lorentz."""
    e = unit(algebra)
    return algebra.rank / inner(e, e)


@dataclass(frozen=True, eq=False)
class WishartParams:
    algebra: Algebra
    p: float
    a: ConeElement

    def __post_init__(self):
        if self.a.algebra != self.algebra:
            raise ValueError("scale element belongs to a different algebra")
        thr = shape_threshold(self.algebra)
        if not self.p > thr:
            raise ValueError(
                f"shape p={self.p} out of range for {self.algebra.spec_string()}: "
                f"requires p > {thr} (= dim/r - 1)"
            )
        # the scale-dependent density constant, computed once (hot loops)
        log_norm = self.p * _log_det(self.a.element) - log_multivariate_gamma(self.algebra, self.p)
        object.__setattr__(self, "_log_norm", log_norm)

    @classmethod
    def isotropic(cls, algebra: Algebra, p: float, scale: float = 1.0) -> "WishartParams":
        return cls(algebra, p, ConeElement.certify(scale * unit(algebra)))


def _log_density_batch(params: WishartParams, coords: np.ndarray) -> np.ndarray:
    """Log density at each row of a (N, dim) batch; -inf off the open cone."""
    alg = params.algebra
    inside = _in_open_cone_ldl(alg, coords)
    q = alg.dim / alg.rank
    log_det = _log_det_batch(alg, np.where(inside[:, None], coords, _unit_coords(alg)))
    values = params._log_norm + (params.p - q) * log_det - coords @ params.a.coords
    return np.where(inside, values, -np.inf)


def log_density(params: WishartParams, y: Element) -> float:
    """Log density at y; -inf off the open cone (the support indicator)."""
    if y.algebra != params.algebra:
        raise ValueError("evaluation point belongs to a different algebra")
    return float(_log_density_batch(params, y.coords[None])[0])


def laplace_transform(params: WishartParams, t: Element) -> float:
    """det(e + P(a^(-1/2)) t)^(-p); OutOfRegion when the argument leaves V,
    OverflowError, quoting the log value, when the result exceeds a float."""
    if t.algebra != params.algebra:
        raise ValueError("transform argument belongs to a different algebra")
    alg = params.algebra
    arg = unit(alg) + quadratic_action(params.a.inv_sqrt(), t)
    _require_open_cone_ldl(
        alg, arg.coords[None], "e + P(a^(-1/2)) t left the open cone", OutOfRegion
    )
    return _exp(-params.p * _log_det(arg), "Laplace transform")


def mean(params: WishartParams) -> Element:
    return mean_scale_factor(params.algebra) * params.p * params.a.inverse()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lower_indices(r: int):
    """(row, column) indices below the diagonal of an r x r matrix, in the
    order the Bartlett draws fill them (row-major, unlike the packing order)."""
    return np.tril_indices(r, -1)


def _bartlett_chunk(algebra: Algebra, p: float, m: int, gen: np.random.Generator) -> np.ndarray:
    """Draw m standard (scale = e) Wishart matrices for a matrix kind.

    Lower-triangular T with T_jj^2 ~ Gamma(p - j d / 2) and off-diagonal
    entries N(0, 1/2) per real component; Y = T T*.  Draw order is fixed so
    regeneration is bit-identical.
    """
    r = algebra.param
    d = algebra.peirce_degree
    complex_kind = algebra.kind is AlgebraKind.HERM_COMPLEX
    t = np.zeros((m, r, r), dtype=complex if complex_kind else float)
    for j in range(r):
        t[:, j, j] = np.sqrt(gen.gamma(shape=p - 0.5 * j * d, size=m))
    il, jl = _lower_indices(r)
    if il.size:
        if complex_kind:
            re = gen.normal(0.0, math.sqrt(0.5), size=(m, il.size))
            im = gen.normal(0.0, math.sqrt(0.5), size=(m, il.size))
            t[:, il, jl] = re + 1j * im
        else:
            t[:, il, jl] = gen.normal(0.0, math.sqrt(0.5), size=(m, il.size))
    return _hermitian_part(t @ t.conj().transpose(0, 2, 1))


def _lorentz_chunk(algebra: Algebra, p: float, m: int, gen: np.random.Generator) -> np.ndarray:
    """Standard Lorentz-cone draws via the polar factorization.

    With x = (s, s sqrt(u) * xi): s ~ Gamma(2p), u ~ Beta(n/2, p - (n-1)/2)
    and xi uniform on the sphere, independently.
    """
    n = algebra.param
    s = gen.gamma(shape=2.0 * p, size=m)
    u = gen.beta(0.5 * n, p - 0.5 * (n - 1), size=m)
    g = gen.standard_normal(size=(m, n))
    norm = np.sqrt(np.sum(g * g, axis=1))
    norm = np.where(norm > 0.0, norm, 1.0)
    xi = g / norm[:, None]
    coords = np.empty((m, n + 1))
    coords[:, 0] = s
    coords[:, 1:] = (s * np.sqrt(u))[:, None] * xi
    return coords


def _standard_chunk_coords(algebra: Algebra, p: float, m: int, gen) -> np.ndarray:
    if algebra.kind is AlgebraKind.LORENTZ:
        return _lorentz_chunk(algebra, p, m, gen)
    return mats_to_coords(algebra, _bartlett_chunk(algebra, p, m, gen))


@dataclass(eq=False)
class SampleBatch:
    """A deterministic, seed-tagged batch of draws of the closed cone.

    ``coords`` is the (count, dim) coordinate matrix, read-only.
    """

    params: WishartParams
    seed: int
    stream: int
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return self.coords.shape[0]

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "format": "symcone-samples",
            "algebra": {
                "kind": self.params.algebra.kind.value,
                "r_or_n": self.params.algebra.param,
            },
            "p": self.params.p,
            "scale": self.params.a.coords.tolist(),
            "seed": self.seed,
            "stream": self.stream,
            "count": len(self),
            "samples": self.coords.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SampleBatch":
        alg = Algebra(AlgebraKind(data["algebra"]["kind"]), int(data["algebra"]["r_or_n"]))
        return cls._restore(alg, data, data["scale"], data["samples"])

    @classmethod
    def _restore(cls, alg: Algebra, meta, scale, rows) -> "SampleBatch":
        """Rebuild a serialized batch."""
        a = ConeElement.certify(Element(alg, np.asarray(scale, dtype=float)))
        coords = np.asarray(rows, dtype=float).reshape(int(meta["count"]), alg.dim)
        return cls(
            params=WishartParams(alg, float(meta["p"]), a),
            seed=int(meta["seed"]),
            stream=int(meta["stream"]),
            coords=coords,
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        meta = {
            "algebra": self.params.algebra.spec_string(),
            "p": repr(self.params.p),
            "scale": json.dumps(self.params.a.coords.tolist()),
            "seed": str(self.seed),
            "stream": str(self.stream),
            "count": str(len(self)),
        }
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        # the bytes of csv.writer: floats as repr, never quoted
        fh.write(",".join(f"c{k}" for k in range(self.params.algebra.dim)) + "\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in self.coords.tolist()))

    @classmethod
    def from_csv(cls, path) -> "SampleBatch":
        with open(path, "r", newline="") as fh:
            return cls.read_csv(fh)

    @classmethod
    def read_csv(cls, fh) -> "SampleBatch":
        meta = {}
        body = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            else:
                body.append(line)
        reader = csv.reader(io.StringIO("".join(body)))
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader if row]
        alg = Algebra.from_spec(meta["algebra"])
        if len(header) != alg.dim:
            raise ValueError("CSV header does not match the algebra dimension")
        return cls._restore(alg, meta, json.loads(meta["scale"]), rows)


def _draw(
    params: WishartParams,
    count: int,
    seed: int,
    streams,
    workers: int = 1,
    purpose: int = rng.PURPOSE_SAMPLE,
) -> np.ndarray:
    """``count`` draws of each stream, stacked stream by stream in one
    (len(streams) * count, dim) array.  A stream's rows depend on neither the
    other streams nor the worker count: each chunk has its own key, and the
    scale map and the certificate are row-wise, run once over the array."""
    alg = params.algebra
    layout = rng.chunk_layout(count)
    entries = [(i * count + start, stream, k, size)
               for i, stream in enumerate(streams) for k, start, size in layout]
    coords = np.empty((len(streams) * count, alg.dim))

    def fill(entry):
        start, stream, k, size = entry
        gen = rng.make_generator(seed, purpose, stream, k)
        coords[start : start + size] = _standard_chunk_coords(alg, params.p, size, gen)

    if workers > 1 and len(entries) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, entries))
    else:
        for entry in entries:
            fill(entry)

    # standard draws to scale a by the quadratic representation of a^(-1/2)
    coords = quadratic_action_batch(alg, params.a.inv_sqrt().coords, coords)
    # each T T^H is in the open cone before rounding, but near the shape
    # threshold it can be singular to rounding, so certify the closure;
    # consumers that need the open cone apply their own rule
    _require_open_cone_ldl(
        alg, coords, f"sampler produced a draw outside the open cone at shape p={params.p}",
        eps=-EPS_CONE,
    )
    return coords


def sample(
    params: WishartParams,
    count: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
    _purpose: int = rng.PURPOSE_SAMPLE,
) -> SampleBatch:
    """Draw ``count`` i.i.d. cone elements from the distribution.

    Output is a pure function of (seed, stream, count): draws are organized
    in fixed-size chunks keyed by (seed, purpose, stream, chunk index), so
    the worker count changes wall time only, never the values.
    """
    coords = _draw(params, count, seed, [stream], workers, _purpose)
    return SampleBatch(params=params, seed=seed, stream=stream, coords=coords)
