"""Jet containers: all partial derivatives of (w, phi) at a point.

Every downstream formula (stress tensors, conservation-law densities,
jump conditions) is written against this container, so analytic solutions,
hand-built test data, and jets of sympy symbols in the tests' exact
references all flow through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnfilledSlotError, ValidationError
from .indexing import JET_SIZE, MULTI_INDICES


def _as_point(point) -> np.ndarray:
    p = np.asarray(point, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] != 3:
        raise ValidationError(f"point must have shape (..., 3), got {p.shape}")
    return p


class _SlotRows:
    """One field of a jet filled in some slots only, read as a full jet's
    array is: ``rows[..., q]`` gives slot q's values.  ``values`` has shape
    (..., len(slots)), its column i holding slot ``slots[i]``, and is a
    view of the same slot-major block as the other field's, which holds
    slots of its own; reading a slot that is not among them raises
    UnfilledSlotError, and the object is no array, so that nothing can
    read a column as the wrong slot."""

    __slots__ = ("values", "_column")

    def __init__(self, values: np.ndarray, slots) -> None:
        self.values = values
        self._column = {int(q): i for i, q in enumerate(slots)}

    def __getitem__(self, key):
        try:
            # the common read first: [..., q] of a filled slot q, an int
            if type(key) is tuple and key[0] is Ellipsis and type(key[1]) is int and len(key) == 2:
                return self.values[..., self._column[key[1]]]
        except (TypeError, IndexError, KeyError):
            pass
        q = key[1] if isinstance(key, tuple) and len(key) == 2 and key[0] is Ellipsis else None
        if not isinstance(q, (int, np.integer)):
            raise TypeError(f"a subset jet is read one slot at a time, as [..., slot]; got {key!r}")
        if q not in self._column:
            name = f" {MULTI_INDICES[q]}" if 0 <= q < JET_SIZE else ""
            raise UnfilledSlotError(
                f"jet slot {q}{name} was not filled; the jet holds slots {tuple(self._column)}"
            )
        return self.values[..., self._column[q]]

    def __array__(self, *args, **kwargs):
        raise TypeError("a subset jet holds only some slots; read one as [..., slot]")


@dataclass(frozen=True, eq=False)
class FieldJet:
    """Derivatives of the deflection w and the force function phi at a point.

    ``point`` has shape (..., 3) and the derivative vectors shape
    (..., 35); a single point therefore carries plain 1-d vectors while a
    batch of N points carries (N, 3) and (N, 35) arrays, and all formula
    code broadcasts over the leading axes unchanged.  The jets the
    package fills (``_filled``) hold w and phi as views of one slot-major
    block, so that each slot of a batch is one contiguous run; a jet
    filled in some slots only holds each field as a _SlotRows instead,
    which reads its slots the same way.
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
    def _filled(cls, point, w, phi, slots=None) -> "FieldJet":
        """A jet the package has filled: float64 arrays of shape (..., 35),
        or with ``slots``, a pair (w's, phi's) of slot sequences, w of
        shape (..., len(w's)) whose column i holds slot ``w's[i]`` and phi
        likewise, each then wrapped in a _SlotRows of its own slots.  An
        array of n points, (n, k) as a fill lays them out, is reshaped to
        the batch shape of ``point``; one that has it already is kept as
        it is.  Only the values are checked: a non-finite value in either
        array or in ``point`` raises ValidationError, as for a jet built
        directly."""
        shape = point.shape[:-1]
        w, phi = (a if a.shape[:-1] == shape else a.reshape(shape + a.shape[-1:]) for a in (w, phi))
        for name, arr in (("w", w), ("phi", phi)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")
        if not np.isfinite(point).all():
            raise ValidationError("point contains non-finite entries")
        if slots is not None:
            w, phi = _SlotRows(w, slots[0]), _SlotRows(phi, slots[1])
        return cls._unchecked(point, w, phi)

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
        if isinstance(self.w, _SlotRows) or isinstance(other.w, _SlotRows):
            raise ValidationError("jets filled in some slots only cannot be subtracted")
        return FieldJet(self.point, self.w - other.w, self.phi - other.phi)
