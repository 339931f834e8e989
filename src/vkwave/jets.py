"""Jet containers: all partial derivatives of (w, phi) at a point.

Every downstream formula (stress tensors, conservation-law densities,
jump conditions) is written against this container, so analytic solutions,
finite-difference reconstructions, and hand-built test data all flow
through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .indexing import JET_SIZE, idx


def _as_point(point) -> np.ndarray:
    p = np.asarray(point, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] != 3:
        raise ValidationError(f"point must have shape (..., 3), got {p.shape}")
    return p


@dataclass(frozen=True, eq=False)
class FieldJet:
    """Derivatives of the deflection w and the force function phi at a point.

    ``point`` has shape (..., 3) and the derivative vectors shape
    (..., 35); a single point therefore carries plain 1-d vectors while a
    batch of N points carries (N, 3) and (N, 35) arrays, and all formula
    code broadcasts over the leading axes unchanged.
    """

    point: np.ndarray
    w: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        p = _as_point(self.point)
        w = np.asarray(self.w, dtype=np.float64)
        phi = np.asarray(self.phi, dtype=np.float64)
        for name, arr in (("w", w), ("phi", phi)):
            if arr.ndim == 0 or arr.shape[-1] != JET_SIZE:
                raise ValidationError(
                    f"{name} must have shape (..., {JET_SIZE}), got {arr.shape}"
                )
            if arr.shape[:-1] != p.shape[:-1]:
                raise ValidationError(
                    f"{name} batch shape {arr.shape[:-1]} does not match "
                    f"point batch shape {p.shape[:-1]}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        if not np.all(np.isfinite(p)):
            raise ValidationError("point contains non-finite entries")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _unchecked(cls, point, w, phi) -> "FieldJet":
        """A jet of the given arrays as they are, without the float64 and
        isfinite checks: for jets the package derives from checked ones,
        such as the complex jets of conservation's exact divergence."""
        jet = object.__new__(cls)
        for name, value in (("point", point), ("w", w), ("phi", phi), ("_memo", {})):
            object.__setattr__(jet, name, value)
        return jet

    @classmethod
    def _subset(cls, point, w, phi, slots) -> "FieldJet":
        """A jet of float64 arrays filled only in ``slots`` (NaN in every
        other slot), validated as a full jet is but on the filled slots:
        a non-finite value there or in ``point`` raises ValidationError."""
        for name, arr in (("w", w), ("phi", phi)):
            if not np.isfinite(arr[..., slots]).all():
                raise ValidationError(f"{name} contains non-finite entries")
        if not np.isfinite(point).all():
            raise ValidationError("point contains non-finite entries")
        return cls._unchecked(point, w, phi)

    @property
    def is_batch(self) -> bool:
        return self.point.ndim > 1

    @staticmethod
    def zero(point) -> "FieldJet":
        p = _as_point(point)
        shape = p.shape[:-1] + (JET_SIZE,)
        return FieldJet(p, np.zeros(shape), np.zeros(shape))

    @staticmethod
    def from_partials(
        point,
        w: Mapping[tuple[int, ...], float] | None = None,
        phi: Mapping[tuple[int, ...], float] | None = None,
    ) -> "FieldJet":
        """Build a jet from sparse {subscripts: value} maps.

        Subscript tuples may list indices in any order; () sets the field
        value.  Unnamed slots are zero.  Only single points are supported.
        """
        p = _as_point(point)
        if p.ndim != 1:
            raise ValidationError("from_partials builds single-point jets only")
        wv = np.zeros(JET_SIZE)
        pv = np.zeros(JET_SIZE)
        for target, source in ((wv, w), (pv, phi)):
            for subs, value in (source or {}).items():
                target[idx(*subs)] = value
        return FieldJet(p, wv, pv)

    def dw(self, *subscripts: int) -> float | np.ndarray:
        """Derivative of w with the given subscripts (any order)."""
        return self.w[..., idx(*subscripts)]

    def dphi(self, *subscripts: int) -> float | np.ndarray:
        """Derivative of phi with the given subscripts (any order)."""
        return self.phi[..., idx(*subscripts)]

    def _derived(self, key, build, p):
        """build(self, p), computed once per key and plate constants.

        Formulas that many conservation-law rows share are built once per
        jet this way.  An entry keeps its ``p``, so the id it is filed under
        cannot be reused by other constants while it lives.  Callers share
        the stored value and must not modify it.
        """
        entry = self._memo.get((key, id(p)))
        if entry is None:
            entry = self._memo[(key, id(p))] = (p, build(self, p))
        return entry[1]

    def __sub__(self, other: "FieldJet") -> "FieldJet":
        """Componentwise difference of two jets taken at the same point."""
        if not isinstance(other, FieldJet):
            return NotImplemented
        if not np.array_equal(self.point, other.point):
            raise ValidationError("jets taken at different points cannot be subtracted")
        return FieldJet(self.point, self.w - other.w, self.phi - other.phi)
