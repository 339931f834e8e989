"""Material and geometric constants of an isotropic elastic plate."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ValidationError, _real


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
