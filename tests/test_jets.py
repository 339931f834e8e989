import numpy as np
import pytest

from vkwave import FieldJet, ValidationError
from vkwave.indexing import JET_SIZE, S0, S11


def test_batch_shapes():
    pts = np.zeros((4, 3))
    jet = FieldJet(pts, np.zeros((4, JET_SIZE)), np.zeros((4, JET_SIZE)))
    assert jet.w.shape == (4, JET_SIZE)
    assert jet.w[..., S11].shape == (4,)


def test_subtraction_requires_matching_points():
    w = np.zeros(JET_SIZE)
    a = FieldJet([0, 0, 0], w + 2.0, w)
    b = FieldJet([0, 0, 0], w + 0.5, w)
    diff = a - b
    assert diff.w[..., S0] == 1.5
    c = FieldJet([1, 0, 0], w, w)
    with pytest.raises(ValidationError):
        _ = a - c


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(point=[0, 0], w=np.zeros(JET_SIZE), phi=np.zeros(JET_SIZE)),
        dict(point=[0, 0, 0], w=np.zeros(JET_SIZE - 1), phi=np.zeros(JET_SIZE)),
        dict(point=np.zeros((2, 3)), w=np.zeros((3, JET_SIZE)), phi=np.zeros((3, JET_SIZE))),
        dict(point=[0, 0, 0], w=np.full(JET_SIZE, np.nan), phi=np.zeros(JET_SIZE)),
    ],
)
def test_shape_and_finiteness_validation(kwargs):
    with pytest.raises(ValidationError):
        FieldJet(**kwargs)

