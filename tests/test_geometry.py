import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasegain import bounds, sets
from phasegain import geometry as G
from phasegain.errors import EmptyInput, EmptyPolygon

from conftest import random_polygon

TWO_PI = 2.0 * math.pi


def winding_number(vertices, z):
    """Independent inside test: total signed turning of the vertex cycle
    around z, in full turns."""
    total = 0.0
    m = len(vertices)
    for k in range(m):
        a = vertices[k] - z
        b = vertices[(k + 1) % m] - z
        total += cmath.phase(b / a)
    return total / TWO_PI


# ---------------------------------------------------------------- hull

def test_hull_square():
    poly = G.convex_hull([1, 1j, -1, -1j])
    assert len(poly) == 4
    assert set(poly.vertices) == {1 + 0j, 1j, -1 + 0j, -1j}


def test_hull_collinear_collapses_to_segment():
    poly = G.convex_hull([0, 1, 0.5])
    assert poly.vertices == (0j, 1 + 0j)


def test_hull_unit_phasors_with_interior_origin():
    pts = [cmath.exp(2j * math.pi * k / 8) for k in range(8)] + [0j]
    poly = G.convex_hull(pts)
    assert len(poly) == 8
    assert 0j not in poly.vertices
    assert winding_number(poly.vertices, 0j) == pytest.approx(1.0, abs=1e-9)


def test_hull_empty_input():
    with pytest.raises(EmptyInput):
        G.convex_hull([])


def test_hull_idempotent(rng):
    for _ in range(50):
        poly = random_polygon(rng)
        again = G.convex_hull(poly.vertices)
        assert again == poly


def test_hull_canonical_rotation_ignores_input_order(rng):
    pts = list(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    a = G.convex_hull(pts)
    b = G.convex_hull(pts[::-1])
    assert a == b


def test_hull_is_ccw(rng):
    for _ in range(30):
        poly = random_polygon(rng)
        if len(poly) < 3:
            continue
        v = poly.vertices
        for k in range(len(v)):
            assert G._cross(v[k], v[(k + 1) % len(v)], v[(k + 2) % len(v)]) > 0


def exact_hull(points):
    """Reference hull: a monotone chain on exact rational coordinates."""
    pts = sorted({(Fraction(p.real), Fraction(p.imag)) for p in map(complex, points)})

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1] if len(pts) > 1 else pts
    return tuple(complex(float(x), float(y)) for x, y in hull)


_coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 8), st.floats(-1.0, 1.0))
_base = st.builds(complex, _coord, _coord)
_nudge = st.builds(complex, st.floats(-1e-300, 1e-300), st.floats(-1e-300, 1e-300))


@st.composite
def _cloud(draw):
    """Points with collinear runs, copies nudged by 1e-300 and duplicates."""
    pts = draw(st.lists(_base, min_size=1, max_size=12))
    a, b = draw(_base), draw(_base)
    pts += [a + (k / 8) * (b - a) for k in draw(st.lists(st.integers(0, 8), max_size=6))]
    pts += [p + draw(_nudge) for p in draw(st.lists(st.sampled_from(pts), max_size=6))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return draw(st.permutations(pts))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=_cloud())
def test_hull_matches_exact_reference(points):
    assert G.convex_hull(points).vertices == exact_hull(points)


def _convex_run(x, far):
    return np.concatenate((x + 1j * x ** 2, far))


@pytest.mark.parametrize("pts", [
    _convex_run(np.arange(1999) / 2000, [2 - 1000j]),
    _convex_run(np.linspace(-0.5, 0.5, 4000), [-0.7j]),
    _convex_run(np.linspace(-0.5, 0.5, 4000),
                np.random.default_rng(5).uniform(-0.5, 0.5, 30) - 0.5j),
], ids=["closed-by-one", "one-inside", "thirty-inside"])
def test_hull_of_a_convex_run_with_far_points(monkeypatch, pts):
    # a pruning that tests each point only against points a fixed offset
    # away drops one or two points of the run per pass, so it takes one
    # pass per point; the pass count is bounded here by counting _orient
    calls = []
    orient = G._orient
    monkeypatch.setattr(G, "_orient", lambda *abc: calls.append(1) or orient(*abc))
    assert G.convex_hull(pts).vertices == exact_hull(pts)
    assert len(calls) <= 20


def test_hull_keeps_every_vertex_of_a_fine_arc():
    assert len(sets.Arc(-2, 2).to_polygon(65536)) == 65536


def test_best_constant_of_a_tiny_circle():
    m = sets.DEFAULT_RESOLUTION
    inscribed = 1e-5 * (m / math.pi) * math.sin(math.pi / m)
    assert bounds.best_constant(sets.ShiftedCircle(0, 1e-5)) == pytest.approx(inscribed, rel=1e-12)


def test_arc_constant_converges_with_resolution():
    exact = (4 + 2 * math.sin(2)) / TWO_PI
    err = {res: abs(bounds.best_constant(sets.Arc(-2, 2), res) - exact) for res in (16384, 262144)}
    assert err[262144] <= err[16384]


# ------------------------------------------------------------- support

W4 = G.convex_hull([1, 1j, -1, -1j])
W8 = G.convex_hull([cmath.exp(2j * math.pi * k / 8) for k in range(8)])
SEGMENT_01 = G.convex_hull([0, 1])


def test_support_square_along_real_axis():
    ev = G.support(W4, 0.0)
    assert ev.value == pytest.approx(1.0, abs=1e-12)
    assert W4.vertices[ev.argmax_vertex] == 1 + 0j


def test_support_segment():
    assert G.support(SEGMENT_01, math.pi).value == pytest.approx(0.0, abs=1e-12)
    for theta in np.linspace(0, TWO_PI, 37):
        expected = max(math.cos(theta), 0.0)
        assert G.support(SEGMENT_01, theta).value == pytest.approx(expected, abs=1e-12)


def test_support_octagon_between_vertices():
    # direct max over the 8 vertices at theta = pi/8
    theta = math.pi / 8
    expected = max((cmath.exp(-1j * theta) * v).real for v in W8.vertices)
    ev = G.support(W8, theta)
    assert ev.value == pytest.approx(expected, abs=1e-15)
    assert ev.value == pytest.approx(math.cos(math.pi / 8), abs=1e-12)


def test_support_value_matches_argmax_vertex(rng):
    for _ in range(100):
        poly = random_polygon(rng)
        theta = float(rng.uniform(0, TWO_PI))
        ev = G.support(poly, theta)
        direct = (cmath.exp(-1j * theta) * poly.vertices[ev.argmax_vertex]).real
        assert abs(ev.value - direct) <= 1e-12


def test_support_empty():
    with pytest.raises(EmptyPolygon):
        G.support(G.ConvexPolygon(()), 0.0)


def test_normal_fan_matches_direct_argmax(rng):
    for _ in range(40):
        poly = random_polygon(rng)
        if len(poly) < 2:
            continue
        fan = G.normal_fan(poly)
        for theta in rng.uniform(0, TWO_PI, size=16):
            k = G.argmax_vertex(poly, float(theta), fan)
            val = (cmath.exp(-1j * theta) * poly.vertices[k]).real
            assert val == pytest.approx(G.support(poly, float(theta)).value, abs=1e-9)


# --------------------------------------------------------------- width

def test_width_dense_polygon_approximates_disk():
    w1024 = G.convex_hull([cmath.exp(2j * math.pi * k / 1024) for k in range(1024)])
    slack = 2 * (1 - math.cos(math.pi / 1024))
    for theta in (0.0, 0.3, 2.0, 5.5):
        assert 2.0 - slack <= G.width(w1024, theta) <= 2.0 + 1e-12


def test_width_segment_projection():
    assert G.width(SEGMENT_01, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert G.width(SEGMENT_01, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_width_square():
    # support(0) + support(pi) over the vertices of W_4
    expected = max(v.real for v in W4.vertices) - min(v.real for v in W4.vertices)
    assert G.width(W4, 0.0) == pytest.approx(expected, abs=1e-12)
    assert expected == 2.0


# ---------------------------------------------------------- mean width

def test_mean_width_segment():
    assert G.mean_width(SEGMENT_01, 100_000) == pytest.approx(2 / math.pi, abs=1e-7)


def test_mean_width_point_is_zero():
    point = G.convex_hull([0.3 + 0.4j])
    assert G.mean_width(point, 64) == pytest.approx(0.0, abs=1e-12)


def test_mean_width_hexagon():
    w6 = G.convex_hull([cmath.exp(2j * math.pi * k / 6) for k in range(6)])
    # regular hexagon of circumradius 1 has perimeter 6
    assert G.mean_width(w6, 100_000) == pytest.approx(6 / math.pi, abs=1e-7)


def test_mean_width_needs_samples():
    with pytest.raises(ValueError):
        G.mean_width(W4, 4)


# ----------------------------------------------------------- perimeter

@pytest.mark.parametrize("m", [3, 4, 6, 8, 17])
def test_perimeter_regular_mgon(m):
    poly = G.convex_hull([cmath.exp(2j * math.pi * k / m) for k in range(m)])
    assert G.perimeter(poly) == pytest.approx(2 * m * math.sin(math.pi / m), abs=1e-12)


def test_perimeter_segment_counts_both_sides():
    assert G.perimeter(SEGMENT_01) == pytest.approx(2.0, abs=1e-15)


def test_perimeter_point_and_empty():
    assert G.perimeter(G.convex_hull([1j])) == 0.0
    assert G.perimeter(G.ConvexPolygon(())) == 0.0


def test_perimeter_fig1_heptagon():
    coords = [(10, 0.9), (60, 0.75), (100, 0.9), (140, 0.9),
              (175, 0.5), (220, 0.8), (260, 0.7), (315, 0.8)]
    poly = G.convex_hull([r * cmath.exp(1j * math.radians(d)) for d, r in coords])
    assert len(poly) == 7
    assert G.perimeter(poly) == pytest.approx(5.01, abs=0.01)


def test_support_integral_equals_perimeter(rng):
    for _ in range(60):
        poly = random_polygon(rng)
        assert G.support_integral(poly) == pytest.approx(G.perimeter(poly), abs=1e-9)


# --------------------------------------------------------- min support

def test_min_support_regular_mgon():
    assert G.min_support(W8) == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
    assert G.min_support(W4) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)


def test_min_support_segment_is_zero():
    assert G.min_support(SEGMENT_01) == pytest.approx(0.0, abs=1e-12)


def test_min_support_centered_disk_approximation():
    r = 0.37
    poly = G.convex_hull([r * cmath.exp(2j * math.pi * k / 512) for k in range(512)])
    assert G.min_support(poly) == pytest.approx(r, rel=1e-4)


def test_min_support_matches_dense_grid(rng):
    # quadrature-free cross-check against a dense direction grid
    thetas = np.linspace(0, TWO_PI, 20001)
    for _ in range(20):
        poly = random_polygon(rng)
        grid_min = G.support_values(poly, thetas).min()
        assert G.min_support(poly) <= grid_min + 1e-12
        # the grid can overshoot by slope * spacing at a support corner
        slack = max(abs(v) for v in poly.vertices) * (TWO_PI / 20000)
        assert G.min_support(poly) >= grid_min - slack


# ------------------------------------------------------- minkowski sum

def test_minkowski_point_translates():
    p = G.convex_hull([0.2 - 0.1j])
    out = G.minkowski_sum(p, W4)
    assert out == G.convex_hull([v + (0.2 - 0.1j) for v in W4.vertices])


def test_minkowski_self_sum_doubles():
    out = G.minkowski_sum(W4, W4)
    assert out == G.convex_hull([2 * v for v in W4.vertices])


def test_minkowski_orthogonal_segments_make_square():
    a = G.convex_hull([-1, 1])
    b = G.convex_hull([-1j, 1j])
    out = G.minkowski_sum(a, b)
    # brute force over the 4 vertex sums
    oracle = G.convex_hull([u + v for u in a.vertices for v in b.vertices])
    assert out == oracle
    assert set(out.vertices) == {1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}


def test_minkowski_parallel_segments_merge():
    a = G.convex_hull([0, 1])
    b = G.convex_hull([0, 2])
    out = G.minkowski_sum(a, b)
    assert len(out) == 2
    assert out.vertices == (0j, 3 + 0j)


def test_minkowski_matches_pairwise_hull(rng):
    for _ in range(150):
        a = random_polygon(rng)
        b = random_polygon(rng)
        out = G.minkowski_sum(a, b)
        oracle = G.convex_hull([u + v for u in a.vertices for v in b.vertices])
        assert len(out) == len(oracle)
        assert len(out) <= len(a) + len(b)
        assert all(abs(u - v) < 1e-9 for u, v in zip(out.vertices, oracle.vertices))


# -------------------------------------------------------- scale/rotate

def test_scale_rotate_identity():
    assert G.scale_rotate(W4, 1) == W4


def test_scale_rotate_quarter_turn_segment():
    out = G.scale_rotate(SEGMENT_01, 1j)
    assert out == G.convex_hull([0, 1j])


def test_scale_rotate_zero_collapses():
    out = G.scale_rotate(W4, 0)
    assert out.vertices == (0j,)


def test_scale_rotate_perimeter_scales():
    h = 2 * cmath.exp(1j * math.pi / 4)
    out = G.scale_rotate(W4, h)
    assert G.perimeter(out) == pytest.approx(abs(h) * G.perimeter(W4), rel=1e-12)
    assert max(abs(v) for v in out.vertices) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------- properties

def test_support_additive_under_minkowski(rng):
    for _ in range(30):
        a, b = random_polygon(rng), random_polygon(rng)
        s = G.minkowski_sum(a, b)
        for theta in rng.uniform(0, TWO_PI, size=64):
            lhs = G.support(s, float(theta)).value
            rhs = G.support(a, float(theta)).value + G.support(b, float(theta)).value
            assert abs(lhs - rhs) <= 1e-9


def test_cauchy_formula(rng):
    for _ in range(100):
        poly = random_polygon(rng)
        per = G.perimeter(poly)
        assert abs(G.mean_width(poly, 100_000) * math.pi - per) <= 1e-5 * (1 + per)


def test_perimeter_additive_under_minkowski(rng):
    for _ in range(100):
        a, b = random_polygon(rng), random_polygon(rng)
        s = G.minkowski_sum(a, b)
        assert abs(G.perimeter(s) - G.perimeter(a) - G.perimeter(b)) <= 1e-9


def test_perimeter_monotone_under_inclusion(rng):
    for _ in range(60):
        b = random_polygon(rng)
        if len(b) < 3:
            continue
        # shrink towards the centroid to get a strictly included polygon
        c = sum(b.vertices) / len(b)
        a = G.convex_hull([c + 0.6 * (v - c) for v in b.vertices])
        assert all(G.contains(b, v) for v in a.vertices)
        assert G.perimeter(a) <= G.perimeter(b) + 1e-12


def test_max_modulus_attained_on_hull(rng):
    for _ in range(60):
        k = int(rng.integers(1, 40))
        pts = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        poly = G.convex_hull(pts)
        assert max(abs(p) for p in pts) == pytest.approx(
            max(abs(v) for v in poly.vertices), abs=1e-12)


def test_min_support_perimeter_max_modulus_chain(rng):
    checked = 0
    while checked < 40:
        poly = random_polygon(rng)
        if not G.contains(poly, 0j):
            continue
        checked += 1
        lo = G.min_support(poly)
        mid = G.perimeter(poly) / TWO_PI
        hi = max(abs(v) for v in poly.vertices)
        assert lo <= mid + 1e-12
        assert mid <= hi + 1e-12
