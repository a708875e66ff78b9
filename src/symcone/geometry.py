"""Membership predicates for the symmetric cone, its closure, and the beta
domain D = {u : u and e - u both lie in the open cone}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    EPS_CONE,
    Algebra,
    Element,
    _in_open_cone,
    _require_open_cone,
    eigenvalues,
    inner,
    unit,
)
from .errors import NotInCone


def contains_open(x: Element, eps: float = EPS_CONE) -> bool:
    """True iff every Jordan eigenvalue exceeds eps times the spectral radius."""
    return bool(_in_open_cone(eigenvalues(x), eps))


def contains_closure(x: Element, eps: float = EPS_CONE) -> bool:
    """True iff every Jordan eigenvalue is >= -eps times the spectral radius."""
    w = eigenvalues(x)
    return float(w.min()) >= -eps * float(np.abs(w).max())


def in_domain_D(u: Element, eps: float = EPS_CONE) -> bool:
    """True iff all eigenvalues of u lie strictly inside (0, 1)."""
    return contains_open(u, eps) and contains_open(unit(u.algebra) - u, eps)


@dataclass(frozen=True, eq=False)
class ConeElement:
    """An element certified to lie in the open cone, with its min eigenvalue
    cached so hot loops do not recompute spectra."""

    element: Element
    min_eigenvalue: float

    def __post_init__(self):
        if not np.isfinite(self.min_eigenvalue) or self.min_eigenvalue <= 0.0:
            raise NotInCone(
                f"cannot certify cone membership: min eigenvalue {self.min_eigenvalue!r}"
            )

    @classmethod
    def certify(cls, element: Element, eps: float = EPS_CONE) -> "ConeElement":
        what = f"element is not in the open cone of {element.algebra.spec_string()}"
        return cls(element, _require_open_cone(eigenvalues(element), what, eps))

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra

    @property
    def coords(self) -> np.ndarray:
        return self.element.coords


def positivity_pairing(y: ConeElement, x: Element) -> float:
    """<y, x> for y in the open cone and x a nonzero point of the closure.

    The cone geometry guarantees the value is strictly positive; the
    preconditions are enforced, the sign is the caller's check.
    """
    if not isinstance(y, ConeElement):
        raise TypeError("positivity_pairing expects a certified ConeElement")
    if not contains_closure(x):
        raise ValueError("x must lie in the closed cone")
    if float(np.abs(x.coords).max()) == 0.0:
        raise ValueError("x must be nonzero")
    return inner(y.element, x)
