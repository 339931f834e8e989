"""A finite-difference reference for the divergence of a law, for the tests.

The package takes every divergence exactly (conservation._exact_divergence).
``fd_divergence`` is an independent estimate of the same three terms at
one point, by central differences of the assembled density and flux
through the field's jets, one jet per stencil point.  The caller keeps
the stencil off any front: a stencil that straddles one mixes the two
branches.
"""

from __future__ import annotations

import numpy as np

from vkwave.conservation import DivergenceEstimate, density_flux


def _central(field, law_key, point, step: float) -> list[float]:
    """(d1 P1, d2 P2, d3 Psi) at ``point`` by central differences of step
    ``step``."""
    est = []
    for axis, term in enumerate(("x1", "x2", "density")):
        minus, plus = np.array(point, dtype=np.float64), np.array(point, dtype=np.float64)
        minus[axis] -= step
        plus[axis] += step
        rows = [density_flux(law_key, field.jet(x), field.params) for x in (minus, plus)]
        values = [row.density if term == "density" else getattr(row.flux, term) for row in rows]
        est.append((values[1] - values[0]) / (2.0 * step))
    return est


def fd_divergence(field, law_key, point, h: float = 1e-3, richardson: bool = True) -> DivergenceEstimate:
    """(d3 Psi, d1 P1, d2 P2) at ``point``: central differences at step h,
    and with ``richardson`` one Richardson level, (4 A(h/2) - A(h)) / 3,
    which cancels their O(h^2) error."""
    d1, d2, d3 = _central(field, law_key, point, h)
    if richardson:
        fine = _central(field, law_key, point, h / 2.0)
        d1, d2, d3 = ((4.0 * f - c) / 3.0 for c, f in zip((d1, d2, d3), fine))
    return DivergenceEstimate(d3, d1, d2)
