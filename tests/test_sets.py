import cmath
import math

import numpy as np
import pytest

from phasegain import geometry as G
from phasegain import sets
from phasegain.errors import BadParameter

TWO_PI = 2.0 * math.pi

ALL_VARIANTS = [
    sets.RegularMGon(8),
    sets.OnOff(),
    sets.Discrete((0.3 + 0.1j, -0.5j, 0.9, -0.2 - 0.6j)),
    sets.CustomSamples((0.1, 0.5j, -0.7)),
    sets.Arc(-math.pi / 3, math.pi / 3, 1.0),
    sets.ShiftedCircle(0.5j, 0.5),
    sets.RisLorentz(2.0, 0.5),
]


# ----------------------------------------------------------- to_polygon

def test_regular_4gon_is_square():
    poly = sets.RegularMGon(4).to_polygon()
    assert len(poly) == 4
    for v, expected in zip(sorted(poly.vertices, key=lambda z: (z.real, z.imag)),
                           [-1, -1j, 1j, 1]):
        assert v == pytest.approx(expected, abs=1e-12)


def test_onoff_is_segment():
    poly = sets.OnOff().to_polygon()
    assert poly.vertices == (0j, 1 + 0j)


def test_shifted_circle_perimeter():
    poly = sets.ShiftedCircle(0.5j, 0.5).to_polygon(4096)
    # circle of radius 0.5 has perimeter pi; inscribed polygon underestimates
    per = G.perimeter(poly)
    assert per <= math.pi + 1e-12
    assert math.pi - per <= math.pi * (1 - math.cos(math.pi / 4096)) + 1e-9


@pytest.mark.parametrize("m", [3, 4, 5, 8, 16])
def test_regular_mgon_vertex_count(m):
    assert len(sets.RegularMGon(m).to_polygon()) == m


def test_regular_1gon_and_2gon():
    assert sets.RegularMGon(1).to_polygon().vertices == (1 + 0j,)
    assert len(sets.RegularMGon(2).to_polygon()) == 2


def test_continuous_resolution_floor():
    with pytest.raises(BadParameter):
        sets.RisLorentz(2.0, 0.5).to_polygon(2)


# -------------------------------------------------------------- project

def test_project_regular_4gon():
    assert sets.RegularMGon(4).project(0.1) == pytest.approx(1 + 0j, abs=1e-12)


def test_project_onoff_opposite_phase():
    assert sets.OnOff().project(math.pi) == 0j


def test_project_tie_breaks_to_lowest_index():
    # both members of W_2 score ~0 at phi = pi/2; index order decides
    assert sets.RegularMGon(2).project(math.pi / 2) == pytest.approx(1 + 0j, abs=1e-12)


def test_project_arc_clamps_to_endpoint():
    arc = sets.Arc(-1.0, 1.0, 0.8)
    assert arc.project(0.5) == pytest.approx(0.8 * cmath.exp(0.5j), abs=1e-12)
    assert arc.project(2.5) == pytest.approx(0.8 * cmath.exp(1.0j), abs=1e-12)
    assert arc.project(-3.0) == pytest.approx(0.8 * cmath.exp(-1.0j), abs=1e-12)


def test_project_shifted_circle_closed_form():
    c = sets.ShiftedCircle(0.25 + 0.25j, 0.3)
    for phi in np.linspace(0, TWO_PI, 17):
        assert c.project(float(phi)) == pytest.approx(
            0.25 + 0.25j + 0.3 * cmath.exp(1j * phi), abs=1e-12)


# ----------------------------------------------------------- invariants

@pytest.mark.parametrize("fset", ALL_VARIANTS, ids=lambda s: type(s).__name__)
def test_project_matches_hull_support(fset, rng):
    poly = fset.to_polygon(8192)
    for phi in rng.uniform(0, TWO_PI, size=1024):
        w = fset.project(float(phi), resolution=8192)
        inner = (cmath.exp(-1j * phi) * w).real
        assert abs(inner - G.support(poly, float(phi)).value) <= 1e-6


@pytest.mark.parametrize("fset", ALL_VARIANTS, ids=lambda s: type(s).__name__)
def test_members_inside_unit_disk(fset):
    if fset.is_discrete:
        samples = np.asarray(fset.points())
    else:
        samples = fset.boundary_samples(4096)
    assert np.all(np.abs(samples) <= 1 + 1e-9)


# ----------------------------------------------------------- validation

def test_bad_parameters():
    with pytest.raises(BadParameter):
        sets.Arc(0.0, 1.0, -0.1)
    with pytest.raises(BadParameter):
        sets.RisLorentz(0.0, 0.5)
    with pytest.raises(BadParameter):
        sets.RisLorentz(2.0, 1.5)
    with pytest.raises(BadParameter):
        sets.ShiftedCircle(0.6j, 0.6)
    with pytest.raises(BadParameter):
        sets.Discrete((1.5 + 0j,))


# ---------------------------------------------------------- descriptors

@pytest.mark.parametrize("fset", ALL_VARIANTS, ids=lambda s: type(s).__name__)
def test_descriptor_roundtrip(fset):
    again = sets.from_descriptor(fset.descriptor())
    assert again == fset


def test_from_descriptor_rejects_garbage():
    with pytest.raises(BadParameter):
        sets.from_descriptor({"type": "nope"})
    with pytest.raises(BadParameter):
        sets.from_descriptor({"M": 4})
    with pytest.raises(BadParameter):
        sets.from_descriptor({"type": "regular"})
    with pytest.raises(BadParameter):
        sets.from_descriptor({"type": "regular", "M": float("inf")})  # JSON 1e400
