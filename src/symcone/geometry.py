"""Membership predicates for the symmetric cone, its closure, and the beta
domain D = {u : u and e - u both lie in the open cone}."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    EPS_CONE,
    Algebra,
    Element,
    _cone_map,
    _in_open_cone_ldl,
    _inv_sqrt,
    _require_open_cone,
    _Spectrum,
    _unit_coords,
    eigenvalues,
    inner,
)
from .errors import NotInCone


def contains_open(x: Element, eps: float = EPS_CONE) -> bool:
    """True iff lambda_min(x) > eps tr(x), the open-cone rule (on LDL^H pivots)."""
    return bool(_in_open_cone_ldl(x.algebra, x.coords[None], eps)[0])


def contains_closure(x: Element, eps: float = EPS_CONE) -> bool:
    """True iff lambda_min(x) >= -eps tr(x).  Decided on the eigenvalues: a
    singular point of the closure has no usable LDL^H pivots."""
    w = eigenvalues(x)
    return float(w.min()) >= -eps * float(w.sum())


def in_domain_D(u: Element, eps: float = EPS_CONE) -> bool:
    """True iff u and e - u both pass the open-cone rule: one pivot call on both."""
    rows = np.stack([u.coords, _unit_coords(u.algebra) - u.coords])
    return bool(_in_open_cone_ldl(u.algebra, rows, eps).all())


@dataclass(frozen=True, eq=False)
class ConeElement:
    """An element certified to lie in the open cone, with its min eigenvalue and
    its spectrum (with eigenvectors) cached so hot loops do not recompute spectra."""

    element: Element
    min_eigenvalue: float

    def __post_init__(self):
        if not np.isfinite(self.min_eigenvalue) or self.min_eigenvalue <= 0.0:
            raise NotInCone(
                f"cannot certify cone membership: min eigenvalue {self.min_eigenvalue!r}"
            )

    @classmethod
    def certify(cls, element: Element, eps: float = EPS_CONE) -> "ConeElement":
        """lambda_min > eps tr, on the spectrum, which the certificate keeps."""
        spectrum = _Spectrum(element.algebra, element.coords[None], vectors=True)
        what = f"element is not in the open cone of {element.algebra.spec_string()}"
        cone = cls(element, float(_require_open_cone(spectrum.eigs, what, eps)[0]))
        object.__setattr__(cone, "_spectrum", spectrum)
        return cone

    _spectrum = cached_property(lambda c: _Spectrum(c.algebra, c.coords[None], vectors=True))
    _inverse_root = cached_property(lambda c: Element(c.algebra, _inv_sqrt(c._spectrum)[0]))

    def inv_sqrt(self) -> Element:
        """a^(-1/2), mapped from the cached spectrum once and then kept."""
        return self._inverse_root

    def inverse(self) -> Element:
        """a^(-1), from the cached spectrum."""
        return Element(self.algebra, _cone_map(self._spectrum, lambda t: 1.0 / t, "inverse")[0])

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
