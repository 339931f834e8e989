"""The value types keep only their inputs: a constructor validates them and
derives the rest, so no derived value can disagree with the inputs, and a
copy with one input replaced is a fresh construction."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vkwave
from vkwave import (
    AccelerationWave,
    FieldJet,
    FrontGeometry,
    InvariantSolution,
    JumpRecord,
    PiecewiseField,
    PlateParams,
    PolynomialField,
    ValidationError,
    WaveVerdict,
    extract_jumps,
    sample_front_point,
)

POINT = np.array([0.3, -0.2, 0.1])


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_plates = st.builds(PlateParams, _finite(0.1, 10.0), _finite(-0.9, 0.45), _finite(0.05, 2.0), _finite(0.1, 5.0))
_coeffs = st.tuples(*[_finite(-1.0, 1.0)] * 4)
_speeds = st.one_of(_finite(0.2, 3.0), _finite(-3.0, -0.2))
_solutions = st.builds(InvariantSolution, _coeffs, _coeffs, _speeds, _plates)
_monomials = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), _finite(-1.0, 1.0), max_size=4)
_normals = _finite(0.0, 2.0 * math.pi).map(lambda th: np.array([math.cos(th), math.sin(th)]))
_jets = st.tuples(
    st.lists(_finite(-1.0, 1.0), min_size=35, max_size=35),
    st.lists(_finite(-1.0, 1.0), min_size=35, max_size=35),
).map(lambda wp: FieldJet(POINT, np.array(wp[0]), np.array(wp[1])))
_geometries = st.builds(FrontGeometry, _finite(-2.0, 2.0), _normals, _finite(-2.0, 2.0))

#: type -> (instances, {input name: its values}, the derived values)
CASES = {
    PlateParams: (
        _plates,
        {
            "youngs_modulus": _finite(0.1, 10.0),
            "poisson_ratio": _finite(-0.9, 0.45),
            "thickness": _finite(0.05, 2.0),
            "areal_density": _finite(0.1, 5.0),
        },
        lambda p: (p.D, p.Eh),
    ),
    InvariantSolution: (
        _solutions,
        {"u": _coeffs, "phi": _coeffs, "wave_speed": _speeds, "params": _plates},
        lambda s: (s.omega,),
    ),
    PolynomialField: (
        st.builds(PolynomialField, _monomials, _monomials, _plates),
        {"w": _monomials, "phi": _monomials, "params": _plates},
        lambda f: (
            f.w_exponents, f.w_coefficients, f.phi_exponents, f.phi_coefficients,
            f.jet(POINT).w, f.jet(POINT).phi,
        ),
    ),
    AccelerationWave: (
        st.builds(AccelerationWave, _solutions, _finite(0.1, 1.0), _finite(-1.0, 1.0)),
        {"ahead": _solutions, "c1": _finite(-1.0, -0.1), "c2": _finite(-1.0, 1.0)},
        lambda w: (
            w.behind.u, w.behind.phi, w.behind.wave_speed, w.behind.omega,
            [getattr(w.front, f.name) for f in dataclasses.fields(w.front)],
            [getattr(w.params, name) for name in ("youngs_modulus", "poisson_ratio", "thickness", "areal_density")],
            w.lambda_amplitude, w.mu_amplitude, w.jet(POINT).w, w.jet(POINT).phi,
        ),
    ),
    FrontGeometry: (
        _geometries,
        {"speed": _finite(-2.0, 2.0), "normal": _normals, "arc_rate": _finite(-2.0, 2.0)},
        lambda g: (g.tangent,),
    ),
    JumpRecord: (
        st.builds(JumpRecord, st.just(POINT), _geometries, _jets, _jets),
        {"point": st.just(POINT * 2.0), "geometry": _geometries, "ahead": _jets, "behind": _jets},
        lambda r: (r.jump.w, r.jump.phi, r.lambda_, r.mu),
    ),
    WaveVerdict: (
        st.builds(WaveVerdict, st.lists(st.text(max_size=3), max_size=2).map(tuple)),
        {"reasons": st.lists(st.text(max_size=3), max_size=2).map(tuple)},
        lambda v: (v.passed,),
    ),
}


def _bits(values) -> list[bytes]:
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_a_type_is_built_from_its_inputs_only(cls):
    _, inputs, _ = CASES[cls]
    assert [f.name for f in dataclasses.fields(cls) if f.init] == list(inputs)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_replacing_an_input_derives_the_rest_afresh(cls, data):
    objects, inputs, derived = CASES[cls]
    obj = data.draw(objects, "object")
    name = data.draw(st.sampled_from(list(inputs)), "input")
    value = data.draw(inputs[name], "value")
    fresh = cls(**{**{n: getattr(obj, n) for n in inputs}, name: value})
    assert _bits(derived(dataclasses.replace(obj, **{name: value}))) == _bits(derived(fresh))


def test_a_replaced_wave_amplitude_is_the_extracted_one(generic_params):
    ahead = InvariantSolution((0.1, 0.0, -0.2, 0.4), (0.0, 0.2, 0.25, -0.1), 1.1, generic_params)
    wave = dataclasses.replace(AccelerationWave(ahead, 0.7, 0.3), c1=2.0)
    rec = extract_jumps(wave, sample_front_point(wave.front, 0.2, 0.4))
    assert rec.lambda_ == pytest.approx(wave.lambda_amplitude, rel=1e-12)
    assert rec.mu == pytest.approx(wave.mu_amplitude, rel=1e-12)


@pytest.mark.parametrize(
    "cls, derived",
    [
        (PlateParams, "bending_rigidity"),
        (PlateParams, "membrane_stiffness"),
        (InvariantSolution, "omega"),
        (PolynomialField, "w_coefficients"),
        (AccelerationWave, "behind"),
        (AccelerationWave, "front"),
        (AccelerationWave, "params"),
        (JumpRecord, "lambda_"),
        (WaveVerdict, "passed"),
    ],
)
def test_a_derived_value_cannot_be_given(cls, derived):
    with pytest.raises(TypeError, match=derived):
        cls(**{derived: None})


def test_the_factory_names_are_the_constructors():
    assert vkwave.make_plate_params is PlateParams
    assert vkwave.invariant_solution is InvariantSolution
    assert vkwave.polynomial_field is PolynomialField
    assert vkwave.acceleration_wave is AccelerationWave


_PLATE = PlateParams(1.0, 0.3, 1.0, 1.0)
_AHEAD = InvariantSolution((0.1, 0.0, -0.2, 0.4), (0.0, 0.2, 0.25, -0.1), 1.1, _PLATE)
_ZERO = (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        # the messages of the factory functions these constructors replace
        (PlateParams, (0.0, 0.3, 1.0, 1.0), "youngs_modulus must be positive, got 0.0"),
        (PlateParams, (1.0, 0.5, 1.0, 1.0), "poisson_ratio must lie in (-1, 0.5), got 0.5"),
        (PlateParams, (1.0, 0.3, -1, 1.0), "thickness must be positive, got -1"),
        (PlateParams, (1.0, 0.3, 1.0, 0), "areal_density must be positive, got 0"),
        (PlateParams, (1.0, 0.3, math.nan, 1.0), "thickness must be finite, got nan"),
        (PlateParams, (1.0, "0.3", 1.0, 1.0), "poisson_ratio must be a real number, got '0.3'"),
        (PlateParams, (True, 0.3, 1.0, 1.0), "youngs_modulus must be a real number, got True"),
        (InvariantSolution, ((0, 0, 0), _ZERO, 1.0, _PLATE), "u must have exactly 4 coefficients, got 3"),
        (
            InvariantSolution, (_ZERO, (0, 0, 0, math.inf), 1.0, _PLATE),
            "phi coefficients must be finite, got (0.0, 0.0, 0.0, inf)",
        ),
        (InvariantSolution, (_ZERO, _ZERO, 0.0, _PLATE), "wave speed c must be finite and nonzero, got 0.0"),
        (InvariantSolution, (_ZERO, _ZERO, math.nan, _PLATE), "wave speed c must be finite and nonzero, got nan"),
        (
            PolynomialField, ({(-1, 0, 0): 1.0}, None, _PLATE),
            "w monomial keys must be 3 nonnegative exponents, got (-1, 0, 0)",
        ),
        (
            PolynomialField, ({(-1, 0, 0): math.nan}, None, _PLATE),
            "w monomial keys must be 3 nonnegative exponents, got (-1, 0, 0)",
        ),
        (PolynomialField, ({(1, 0): 1.0}, None, _PLATE), "w monomial keys must be 3 nonnegative exponents, got (1, 0)"),
        (PolynomialField, (None, {(1, 0, 0): math.nan}, _PLATE), "phi[(1, 0, 0)] must be finite, got nan"),
        (
            AccelerationWave, (_AHEAD, 0.0, 1.0),
            "c1 must be nonzero: [w_{,33}] = c1 omega^2 c^2 would vanish",
        ),
        (AccelerationWave, (_AHEAD, 1.0, math.inf), "c1 and c2 must be finite, got (1.0, inf)"),
        (AccelerationWave, (_PLATE, 1.0, 1.0), "ahead branch must be an InvariantSolution"),
        # numbers given as a str or a bool, which the factories took or
        # refused with a TypeError or a plain ValueError
        (InvariantSolution, (("a", 0, 0, 0), _ZERO, 1.0, _PLATE), "u coefficients must be real numbers, got ('a', 0, 0, 0)"),
        (InvariantSolution, (_ZERO, (0, True, 0, 0), 1.0, _PLATE), "phi coefficients must be real numbers, got (0, True, 0, 0)"),
        (InvariantSolution, (_ZERO, _ZERO, "1.1", _PLATE), "wave speed c must be a real number, got '1.1'"),
        (AccelerationWave, (_AHEAD, True, 0.0), "c1 must be a real number, got True"),
        (AccelerationWave, (_AHEAD, 1.0, "0"), "c2 must be a real number, got '0'"),
        (PolynomialField, ({(1, 0, 0): "2"}, None, _PLATE), "w[(1, 0, 0)] must be a real number, got '2'"),
        (PolynomialField, (None, {(1, 0, 0): False}, _PLATE), "phi[(1, 0, 0)] must be a real number, got False"),
        (
            PolynomialField, ({(True, 0, 0): 1.0}, None, _PLATE),
            "w monomial keys must be 3 nonnegative exponents, got (True, 0, 0)",
        ),
        # a front that is no Front failed at the first AUTO jet
        (PiecewiseField, (_AHEAD, _AHEAD, None, _PLATE), "front must be a Front, got NoneType"),
    ],
)
def test_a_constructor_rejects_bad_input_naming_it(cls, args, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(*args)


def test_a_polynomial_field_keeps_a_read_only_copy_of_its_terms(generic_params):
    terms = {(1, 0, 2): 0.5}
    field = PolynomialField(terms, None, generic_params)
    terms[(0, 0, 0)] = 1.0
    assert dict(field.w) == {(1, 0, 2): 0.5} and dict(field.phi) == {}
    with pytest.raises(TypeError):
        field.w[(0, 0, 0)] = 1.0

