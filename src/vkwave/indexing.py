"""Derivative bookkeeping for 4-jets of fields on (x1, x2, x3), x3 = time.

A jet stores every partial derivative of total order <= 4 as a flat vector.
Slots are ordered by total order, then lexicographically by the sorted
subscript tuple, so the layout is::

    (), (1,), (2,), (3,), (1,1), (1,2), (1,3), (2,2), (2,3), (3,3), ...

35 slots in total.  Mixed partials commute, so a derivative is identified
by its sorted subscripts; :func:`idx` accepts them in any order.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 4


def _build_multi_indices() -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    for order in range(MAX_ORDER + 1):
        out.extend(itertools.combinations_with_replacement((1, 2, 3), order))
    return tuple(out)


MULTI_INDICES: tuple[tuple[int, ...], ...] = _build_multi_indices()
JET_SIZE: int = len(MULTI_INDICES)

_POSITION: dict[tuple[int, ...], int] = {m: i for i, m in enumerate(MULTI_INDICES)}

#: EXPONENTS[q] = multiplicities (i, j, k) of subscripts 1, 2, 3 in slot q.
EXPONENTS: np.ndarray = np.array(
    [[m.count(1), m.count(2), m.count(3)] for m in MULTI_INDICES], dtype=np.int64
)

#: SHIFT[a - 1][q] = slot of d/dx_a of slot q.  The derivative of an
#: order-4 slot is not in a 4-jet: it maps to JET_SIZE, a column a caller
#: appends and fills with NaN, so that any formula reading it gives NaN.
SHIFT: np.ndarray = np.array(
    [[_POSITION.get(tuple(sorted(m + (a,))), JET_SIZE) for m in MULTI_INDICES] for a in (1, 2, 3)],
    dtype=np.int64,
)

def idx(*subscripts: int) -> int:
    """Flat slot of the partial derivative with the given subscripts.

    >>> idx()          # the field value itself
    0
    >>> idx(3, 1) == idx(1, 3)
    True
    """
    try:
        return _POSITION[tuple(sorted(subscripts))]
    except KeyError:
        raise KeyError(
            f"no jet slot for subscripts {subscripts!r}; "
            f"each must be 1, 2 or 3 and at most {MAX_ORDER} of them"
        ) from None


# Slots the formula modules read, named by their sorted subscripts, so that
# a formula indexes ``jet.w[..., S12]`` instead of resolving idx(1, 2) on
# every evaluation.
S0 = idx()
S1, S2, S3 = idx(1), idx(2), idx(3)
S11, S12, S13, S22, S23, S33 = idx(1, 1), idx(1, 2), idx(1, 3), idx(2, 2), idx(2, 3), idx(3, 3)
S111, S112, S122, S222 = idx(1, 1, 1), idx(1, 1, 2), idx(1, 2, 2), idx(2, 2, 2)
S1111, S1122, S2222 = idx(1, 1, 1, 1), idx(1, 1, 2, 2), idx(2, 2, 2, 2)
