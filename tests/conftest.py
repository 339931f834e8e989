import math

import pytest

from vkwave import make_plate_params


@pytest.fixture(scope="session")
def unit_params():
    """Parameters normalized so D = Eh = 1 and rho = 1."""
    return make_plate_params(
        youngs_modulus=1.0 / math.sqrt(12.0),
        poisson_ratio=0.0,
        thickness=math.sqrt(12.0),
        areal_density=1.0,
    )


@pytest.fixture(scope="session")
def generic_params():
    return make_plate_params(
        youngs_modulus=2.1,
        poisson_ratio=0.27,
        thickness=0.31,
        areal_density=1.7,
    )


@pytest.fixture()
def count_jet_calls(monkeypatch):
    """Patch the jet method of a field's class to record each call's point
    count; returns the list the counts go into."""

    def install(field):
        sizes = []
        jet = type(field).jet

        def counted(self, point, *args, **kwargs):
            sizes.append(len(point))
            return jet(self, point, *args, **kwargs)

        monkeypatch.setattr(type(field), "jet", counted)
        return sizes

    return install
