"""Output checks for the benchmark, computed apart from symcone.

Every quantity here comes from ``numpy.linalg``, ``scipy.spatial.distance``
or a closed form; nothing calls symcone's spectral code.  The coordinate
layout is the documented one (README, "Coordinate layout"):

- ``symr:r``    ``[x_11 .. x_rr, sqrt(2)*x_ij for i<j row-major]``
- ``hermc:r``   ``[x_11 .. x_rr, sqrt(2)*Re x_ij (i<j), sqrt(2)*Im x_ij (i<j)]``
- ``lorentz:n`` ``[x_0, x_1 .. x_n]``

Each ``check_*`` function returns a list of failure messages, empty when the
output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# tolerances from the acceptance criteria the workloads mirror
DCOR_REL_TOL = 1e-9
COMPLEMENT_TOL = 1e-10
MAX_ABS_Z = 5.0
RESIDUAL_TOL = 1e-10
LOG_QUADRATIC_TOL = 1e-9
DEFECT_MIN = 0.09
TRACE_CONTROL_MIN = 0.1
RECOMPUTE_TOL = 1e-9


# ---------------------------------------------------------------------------
# coordinates and spectra
# ---------------------------------------------------------------------------

def parse_spec(spec: str) -> tuple[str, int]:
    kind, _, size = spec.partition(":")
    return kind, int(size)


def unit_coords(kind: str, param: int) -> np.ndarray:
    if kind == "lorentz":
        e = np.zeros(param + 1)
        e[0] = 1.0
        return e
    dim = param * (param + 1) // 2 if kind == "symr" else param * param
    e = np.zeros(dim)
    e[:param] = 1.0
    return e


def to_mats(kind: str, r: int, coords: np.ndarray) -> np.ndarray:
    """(N, dim) coordinates -> (N, r, r) symmetric or Hermitian matrices."""
    c = np.asarray(coords, dtype=float)
    iu, ju = np.triu_indices(r, 1)
    k = iu.size
    dtype = complex if kind == "hermc" else float
    m = np.zeros((c.shape[0], r, r), dtype=dtype)
    m[:, np.arange(r), np.arange(r)] = c[:, :r]
    off = c[:, r:r + k] / SQRT2
    if kind == "hermc":
        off = off + 1j * c[:, r + k:r + 2 * k] / SQRT2
    m[:, iu, ju] = off
    m[:, ju, iu] = np.conj(off)
    return m


def from_mats(kind: str, r: int, mats: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(r, 1)
    diag = mats[:, np.arange(r), np.arange(r)].real
    upper = mats[:, iu, ju] * SQRT2
    parts = [diag, upper.real] + ([upper.imag] if kind == "hermc" else [])
    return np.concatenate(parts, axis=1)


def eigvals(kind: str, param: int, coords: np.ndarray) -> np.ndarray:
    """Jordan eigenvalues, ascending: eigvalsh for the matrix kinds,
    x_0 -+ |xbar| for the Lorentz family."""
    c = np.asarray(coords, dtype=float)
    if kind == "lorentz":
        nrm = np.linalg.norm(c[:, 1:], axis=1)
        return np.stack([c[:, 0] - nrm, c[:, 0] + nrm], axis=1)
    return np.linalg.eigvalsh(to_mats(kind, param, c))


def traces(kind: str, param: int, coords: np.ndarray) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    return 2.0 * c[:, 0] if kind == "lorentz" else c[:, :param].sum(axis=1)


def split(kind: str, r: int, x: np.ndarray, y: np.ndarray):
    """u = P(v^(-1/2)) x and its complement P(v^(-1/2)) y for matrix kinds,
    with v^(-1/2) from numpy.linalg.eigh."""
    w, vec = np.linalg.eigh(to_mats(kind, r, x + y))
    s = np.einsum("nij,nj,nkj->nik", vec, 1.0 / np.sqrt(w), vec.conj())
    u = s @ to_mats(kind, r, x) @ s
    comp = s @ to_mats(kind, r, y) @ s
    return from_mats(kind, r, u), from_mats(kind, r, comp)


def log_det(kind: str, r: int, coords: np.ndarray) -> np.ndarray:
    sign, logabs = np.linalg.slogdet(to_mats(kind, r, coords))
    return np.where(sign.real > 0.0, logabs, np.nan)


def dcor(x: np.ndarray, y: np.ndarray) -> float:
    """Biased V-statistic distance correlation from scipy distances."""
    # imported here so that the run's set-up time holds symcone's imports only
    from scipy.spatial.distance import pdist, squareform

    def centered(z):
        d = squareform(pdist(z))
        return d - d.mean(axis=0)[None, :] - d.mean(axis=1)[:, None] + d.mean()

    a = centered(x)
    b = centered(y)
    return math.sqrt(max(np.mean(a * b), 0.0) / math.sqrt(np.mean(a * a) * np.mean(b * b)))


def wishart_mean(kind: str, param: int, terms) -> np.ndarray:
    """Closed-form mean of a sum of Wishart laws with scales k*e: each term
    (p, k) adds p/k * e, doubled for the Lorentz family."""
    factor = 2.0 if kind == "lorentz" else 1.0
    return factor * sum(p / k for p, k in terms) * unit_coords(kind, param)


def mean_z(coords: np.ndarray, expected: np.ndarray) -> float:
    """Largest |z| of the coordinate sample means against ``expected``."""
    n = coords.shape[0]
    sigma = coords.std(axis=0, ddof=1) / math.sqrt(n)
    return float((np.abs(coords.mean(axis=0) - expected) / sigma).max())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def check_experiment(report: dict, x, y, m: int, resampled: int, mean_terms, expect_reject: bool):
    """An IndependenceReport dict against draws regenerated at its seed."""
    fails = []
    kind, r = parse_spec(report["algebra"])
    level, p_value, decision = report["level"], report["p_value"], report["decision"]
    if expect_reject and not (decision == "reject" and p_value <= level):
        fails.append(f"expected a rejection, got {decision} at p={p_value}")
    if not expect_reject and not (decision == "non-reject" and p_value > level):
        fails.append(f"expected no rejection, got {decision} at p={p_value}")
    if report["resampled"] != resampled:
        fails.append(f"resampled {report['resampled']} rows, regeneration needed {resampled}")

    v = x + y
    u, comp = split(kind, r, x, y)
    u_eigs = eigvals(kind, r, u)
    if not (u_eigs.min() > 0.0 and u_eigs.max() < 1.0):
        fails.append(f"u eigenvalues leave (0, 1): [{u_eigs.min()}, {u_eigs.max()}]")
    dc = report["domain_check"]
    for key, mine in (("min_u_eigenvalue", u_eigs.min()), ("max_u_eigenvalue", u_eigs.max())):
        if abs(dc[key] - mine) > RECOMPUTE_TOL:
            fails.append(f"{key} {dc[key]} differs from eigvalsh {mine}")
    complement = float(np.abs(u + comp - unit_coords(kind, r)).max())
    if not (dc["max_complement_residual"] <= COMPLEMENT_TOL and complement <= COMPLEMENT_TOL):
        fails.append(
            f"complement residual {dc['max_complement_residual']} (recomputed {complement})"
        )

    stat = dcor(u[:m], v[:m])
    if not _rel(report["statistic"], stat) <= DCOR_REL_TOL:
        fails.append(f"dcor statistic {report['statistic']} differs from scipy {stat}")

    expected = wishart_mean(kind, r, mean_terms)
    if not np.allclose(report["mean_check"]["expected"], expected, rtol=1e-12, atol=0.0):
        fails.append(f"mean_check expected {report['mean_check']['expected']} != {expected}")
    if not np.allclose(report["mean_check"]["observed"], v.mean(axis=0), rtol=1e-12, atol=1e-12):
        fails.append("mean_check observed differs from the regenerated mean of v")
    z = mean_z(v, expected)
    if not z <= MAX_ABS_Z:
        fails.append(f"mean of v is {z:.2f} sigma from the closed form")
    return fails


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def json_reload(text: str):
    """Parse a written JSON document; it must re-serialize to the same bytes."""
    doc = json.loads(text)
    fails = [] if json.dumps(doc) + "\n" == text else ["JSON output does not reload bit-exactly"]
    return doc, fails


def csv_reload(text: str):
    """Parse a written CSV batch into the sample-batch JSON shape; every
    value must re-serialize to the same bytes."""
    meta = {}
    lines = text.split("\n")
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    header = lines.pop(0).split(",")
    if lines and lines[-1] == "":
        lines.pop()
    rows = [[float(c) for c in line.split(",")] for line in lines]
    kind, param = parse_spec(meta["algebra"])
    doc = {
        "format": "symcone-samples",
        "algebra": {"kind": kind, "r_or_n": param},
        "p": float(meta["p"]),
        "scale": json.loads(meta["scale"]),
        "seed": int(meta["seed"]),
        "stream": int(meta["stream"]),
        "count": int(meta["count"]),
        "samples": rows,
    }
    fails = []
    if header != [f"c{k}" for k in range(len(header))] or any(len(r) != len(header) for r in rows):
        fails.append("CSV header and rows disagree")
    rebuilt = [f"# {k}={v}" for k, v in meta.items()] + [",".join(header)]
    rebuilt += [",".join(repr(c) for c in row) for row in rows]
    if "\n".join(rebuilt) + "\n" != text:
        fails.append("CSV output does not reload bit-exactly")
    return doc, fails


def check_sample_doc(doc: dict, n: int, p: float, scale: float):
    """A reloaded sample batch: count, open-cone membership by eigvalsh and
    the sample mean against p * a^(-1) (2p * a^(-1) for Lorentz)."""
    kind, param = doc["algebra"]["kind"], doc["algebra"]["r_or_n"]
    coords = np.asarray(doc["samples"], dtype=float)
    fails = []
    if doc["count"] != n or coords.shape[0] != n:
        fails.append(f"{kind}:{param} holds {coords.shape[0]} draws, expected {n}")
        return fails
    lowest = eigvals(kind, param, coords)[:, 0]
    outside = int((lowest <= 0.0).sum())
    if outside:
        fails.append(f"{kind}:{param}: {outside} draws outside the open cone")
    z = mean_z(coords, wishart_mean(kind, param, [(p, scale)]))
    if not z <= MAX_ABS_Z:
        fails.append(f"{kind}:{param}: sample mean is {z:.2f} sigma from the closed form")
    return fails


# ---------------------------------------------------------------------------
# functional-equation residuals
# ---------------------------------------------------------------------------

def olkin_baker_residuals(x, y, lam, c1, c2, kappa, defect=0.0, kind="symr", r=3):
    """|a(x) + b(y) - c(x+y) - d(u)| for the regular family (lam, c1, c2,
    kappa), with ``defect`` added to d where trace(u) > r/2, from slogdet
    and eigh."""
    u, _ = split(kind, r, x, y)
    e = unit_coords(kind, r)
    a = x @ lam + c1 * log_det(kind, r, x) - kappa
    b = y @ lam + c2 * log_det(kind, r, y) + kappa
    c = (x + y) @ lam + (c1 + c2) * log_det(kind, r, x + y)
    d = c1 * log_det(kind, r, u) + c2 * log_det(kind, r, e - u)
    d = d + np.where(traces(kind, r, u) > r / 2.0, defect, 0.0)
    return np.abs(a + b - c - d)


def check_recomputed(report: dict, residuals: np.ndarray):
    """A residual report against residuals recomputed apart from symcone."""
    fails = []
    for key, mine in (("max_residual", residuals.max()), ("mean_residual", residuals.mean())):
        if not abs(report[key] - mine) <= RECOMPUTE_TOL:
            fails.append(f"{report['equation']} {key} {report[key]} != recomputed {mine}")
    return fails


def check_bound(label: str, value: float, upper: float | None = None, lower: float | None = None):
    if upper is not None and not value <= upper:
        return [f"{label} residual {value} exceeds {upper}"]
    if lower is not None and not value >= lower:
        return [f"{label} residual {value} falls below {lower}"]
    return []
