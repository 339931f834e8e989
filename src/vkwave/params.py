"""The validated inputs that a check names: the constants of an isotropic
elastic plate, the rectangle a balance integrates over, and the ids of
the fourteen conservation laws.

Loading a scenario and building its field need these and nothing of the
layers that use them, so this module imports no other vkwave module but
``errors``.  ``balance`` re-exports Region, ``conservation`` the law
registry and ``jumps`` the closed-form laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ValidationError, _is_integer, _real


@dataclass(frozen=True)
class PlateParams:
    """Plate constants (E, nu, h, rho) plus the derived stiffnesses.

    ``bending_rigidity`` is E h^3 / (12 (1 - nu^2)) and
    ``membrane_stiffness`` is E h; both appear throughout the governing
    equations, so they are computed once here.

    Requires E > 0, -1 < nu < 0.5, h > 0, rho > 0; every value must be a
    finite real number.  Raises :class:`ValidationError` naming the
    offending field.
    """

    youngs_modulus: float
    poisson_ratio: float
    thickness: float
    areal_density: float
    bending_rigidity: float = field(init=False)
    membrane_stiffness: float = field(init=False)

    def __post_init__(self) -> None:
        given = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        values = {name: _real(name, value) for name, value in given.items()}
        e, nu, h, rho = given.values()
        if e <= 0:
            raise ValidationError(f"youngs_modulus must be positive, got {e}")
        if not -1.0 < nu < 0.5:
            raise ValidationError(f"poisson_ratio must lie in (-1, 0.5), got {nu}")
        if h <= 0:
            raise ValidationError(f"thickness must be positive, got {h}")
        if rho <= 0:
            raise ValidationError(f"areal_density must be positive, got {rho}")
        for name, value in values.items():
            object.__setattr__(self, name, value)
        e, nu, h = values["youngs_modulus"], values["poisson_ratio"], values["thickness"]
        object.__setattr__(self, "bending_rigidity", e * h**3 / (12.0 * (1.0 - nu**2)))
        object.__setattr__(self, "membrane_stiffness", e * h)

    @property
    def D(self) -> float:
        return self.bending_rigidity

    @property
    def Eh(self) -> float:
        return self.membrane_stiffness

    @property
    def nu(self) -> float:
        return self.poisson_ratio

    @property
    def rho(self) -> float:
        return self.areal_density


#: The validating constructor under its historical name.
make_plate_params = PlateParams


_MIN_QUAD_ORDER = 4


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle with quadrature settings.

    quad_order is the Gauss-Legendre order per axis per quadrature piece,
    and cells the grid the rectangle is divided into.  The bounds must be
    finite real numbers and the counts integers (numpy's included); they
    are stored as float and int.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    quad_order: int = 8
    cells: tuple[int, int] = (4, 4)

    def __post_init__(self):
        for name in ("x1_min", "x1_max", "x2_min", "x2_max"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not self.x1_min < self.x1_max:
            raise ValidationError("region requires x1_min < x1_max")
        if not self.x2_min < self.x2_max:
            raise ValidationError("region requires x2_min < x2_max")
        if not _is_integer(self.quad_order):
            raise ValidationError("quad_order must be an integer")
        if self.quad_order < _MIN_QUAD_ORDER:
            raise ValidationError(f"quad_order must be at least {_MIN_QUAD_ORDER}")
        try:
            cells = tuple(self.cells)
        except TypeError:
            cells = ()
        if len(cells) != 2 or not all(_is_integer(c) and c >= 1 for c in cells):
            raise ValidationError("cells must be a pair of positive integers")
        object.__setattr__(self, "quad_order", int(self.quad_order))
        object.__setattr__(self, "cells", tuple(int(c) for c in cells))


@dataclass(frozen=True)
class LawId:
    """One row of the conservation-law table: stable index and name."""

    index: int
    name: str


LAWS: tuple[LawId, ...] = (
    LawId(1, "transversal_linear_momentum"),
    LawId(2, "wave_momentum_x1"),
    LawId(3, "wave_momentum_x2"),
    LawId(4, "energy"),
    LawId(5, "scaling"),
    LawId(6, "moment_of_wave_momentum"),
    LawId(7, "angular_momentum_x1"),
    LawId(8, "angular_momentum_x2"),
    LawId(9, "center_of_mass"),
    LawId(10, "galilean_moment_x1"),
    LawId(11, "galilean_moment_x2"),
    LawId(12, "phi_linear_x1"),
    LawId(13, "phi_linear_x2"),
    LawId(14, "compatibility"),
)

_BY_INDEX = {law.index: law for law in LAWS}
_BY_NAME = {law.name: law for law in LAWS}

#: Laws whose jump across an acceleration wave has a closed form.
_CLOSED_FORM_LAWS = (2, 3, 4, 5, 6)


def law(key) -> LawId:
    """Resolve an index, name, or LawId to the registry entry."""
    if isinstance(key, LawId):
        if _BY_INDEX.get(key.index) != key:
            raise ValidationError(f"unknown law {key!r}")
        return key
    if _is_integer(key):
        try:
            return _BY_INDEX[int(key)]
        except KeyError:
            raise ValidationError(
                f"law index must be 1..14, got {key}"
            ) from None
    if isinstance(key, str):
        try:
            return _BY_NAME[key]
        except KeyError:
            raise ValidationError(
                f"unknown law name {key!r}; valid names: {', '.join(sorted(_BY_NAME))}"
            ) from None
    raise ValidationError(f"law must be an index, name, or LawId, got {key!r}")
