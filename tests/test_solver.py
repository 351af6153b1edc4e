import cmath
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasegain import bounds, sets, solver
from phasegain.errors import (
    BudgetExceeded,
    ContinuousSetNotSupported,
    TooLarge,
)

TWO_PI = 2.0 * math.pi

W2 = sets.RegularMGon(2)
W4 = sets.RegularMGon(4)


def exhaustive_gain(ch, fset):
    """Reference oracle: plain itertools enumeration of W^N."""
    best = -1.0
    for combo in itertools.product(fset.points(), repeat=len(ch)):
        g = abs(sum(w * h for w, h in zip(combo, ch.coefficients)))
        best = max(best, g)
    return best


def random_instance(rng, max_n=6, max_pts=5, scale=1.0):
    n_ant = int(rng.integers(1, max_n + 1))
    n_pts = int(rng.integers(2, max_pts + 1))
    pts = rng.standard_normal(n_pts) + 1j * rng.standard_normal(n_pts)
    pts /= np.maximum(1.0, np.abs(pts))
    fset = sets.Discrete(tuple(pts))
    h = scale * (rng.standard_normal(n_ant) + 1j * rng.standard_normal(n_ant))
    return solver.PhasorChannel(tuple(h)), fset


# ------------------------------------------------------------ channels

def test_ideal_gain():
    assert solver.ideal_gain(solver.PhasorChannel((1, 1j, -1))) == pytest.approx(3.0)
    assert solver.ideal_gain(solver.PhasorChannel((3 + 4j,))) == pytest.approx(5.0)
    for n in (1, 4, 17):
        assert solver.ideal_gain(solver.worst_case_channel(n)) == pytest.approx(n)


def test_worst_case_channel_values():
    ch = solver.worst_case_channel(4)
    assert ch.coefficients == pytest.approx((1j, -1, -1j, 1))
    assert solver.worst_case_channel(1).coefficients == pytest.approx((1 + 0j,))


def test_tightness_channel_values():
    ch = solver.tightness_channel(2, 2)
    assert ch.coefficients == pytest.approx((1j, -1))
    ch1 = solver.tightness_channel(5, 1)
    assert ch1.coefficients == pytest.approx((cmath.exp(2j * math.pi / 5),))


def test_channel_csv_parsing(tmp_path):
    p = tmp_path / "ch.csv"
    p.write_text("direct,1,0\n0.5,-0.25\n-1,2\n")
    ch = solver.PhasorChannel.load(str(p))
    assert ch.direct == 1 + 0j
    assert ch.coefficients == (0.5 - 0.25j, -1 + 2j)


def test_channel_json_parsing(tmp_path):
    p = tmp_path / "ch.json"
    p.write_text('{"direct": [0, 1], "h": [[1, 0], [0, -1]]}')
    ch = solver.PhasorChannel.load(str(p))
    assert ch.direct == 1j
    assert ch.coefficients == (1 + 0j, -1j)


# Edge values: signed zeros, subnormals, extremes and 17-digit fractions.
EDGE_PAIRS = [(0.0, -0.0), (-0.0, 0.0), (5e-324, -2.2250738585072014e-308),
              (1.7976931348623157e308, -1e-300), (0.1, -1 / 3), (2.0 / 3, 1e22)]


def bits(z):
    return np.asarray(z, dtype=complex).view(np.int64)


def test_channel_loaders_are_bitwise_exact(tmp_path, rng):
    scales = 10.0 ** rng.integers(-300, 300, (500, 1))
    pairs = EDGE_PAIRS + [tuple(x) for x in rng.standard_normal((500, 2)) * scales]
    text = ["%.17g,%.17g" % p for p in pairs]
    expected = [complex(float(re), float(im)) for re, im in (row.split(",") for row in text)]
    # blank rows, whitespace around fields and a direct row in the middle
    text[3] = " \t" + text[3].replace(",", " , ") + "  "
    csv_text = "\n".join(text[:5] + ["", "  ", " , ", "direct, 0.5 ,-0.25"] + text[5:]) + "\n"
    p = tmp_path / "ch.csv"
    p.write_text(csv_text)
    ch = solver.PhasorChannel.load(str(p))
    assert np.array_equal(bits(ch.h), bits(expected))
    assert ch.direct == 0.5 - 0.25j
    p = tmp_path / "ch.json"
    p.write_text('{"h": [%s], "direct": [0.5, -0.25]}' % ", ".join(
        "[%.17g, %.17g]" % (z.real, z.imag) for z in expected))
    ch = solver.PhasorChannel.load(str(p))
    # JSON reads "-0" as the integer 0, so the reference is built from the parsed values
    parsed = json.loads(p.read_text())["h"]
    assert np.array_equal(bits(ch.h), bits([complex(re, im) for re, im in parsed]))
    assert ch.direct == 0.5 - 0.25j


def test_channel_array_and_tuple_views():
    src = np.array([1 + 2j, -0.5j, 3.0])
    ch = solver.PhasorChannel(src)
    src[0] = 99.0  # the channel keeps its own copy
    assert ch.coefficients == (1 + 2j, -0.5j, 3 + 0j)
    assert isinstance(ch.coefficients, tuple)
    assert all(type(c) is complex for c in ch.coefficients)
    assert ch.h.dtype == np.complex128 and len(ch) == 3
    with pytest.raises(ValueError):
        ch.h[0] = 0.0
    sol = solver.solve_angle_sweep(ch, W4)
    assert sol.weights.dtype == np.complex128 and len(sol.weights) == 3
    with pytest.raises(ValueError):
        sol.weights[0] = 0.0


@pytest.mark.parametrize("coefficients", [(), (1, math.nan), (1, 1j * math.inf), ((1, 2),)])
def test_channel_rejects_bad_coefficients(coefficients):
    with pytest.raises(ValueError):
        solver.PhasorChannel(coefficients)


# -------------------------------------------------------------- greedy

def test_greedy_dense_mgon_is_near_ideal(rng):
    dense = sets.RegularMGon(4096)
    for _ in range(5):
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        sol = solver.greedy_quantize(solver.PhasorChannel(tuple(h)), dense)
        assert sol.ratio >= 0.9999


def test_greedy_matches_exhaustive_on_small_case():
    ch = solver.PhasorChannel((1, cmath.exp(1j * math.pi / 4)))
    sol = solver.greedy_quantize(ch, W4)
    assert sol.gain == pytest.approx(2 * math.cos(math.pi / 8), abs=1e-12)
    assert sol.gain == pytest.approx(exhaustive_gain(ch, W4), abs=1e-12)


def test_greedy_single_antenna_is_projection(rng):
    # each antenna is rounded on its own, to exactly what project returns;
    # h = -1j puts W_2 on a tie, which goes to the lowest index
    fset = sets.Discrete((0.2 + 0.3j, -0.8j, 0.9))
    sol = solver.greedy_quantize(solver.PhasorChannel((1 + 0j,)), fset)
    assert sol.weights[0] == fset.project(0.0)
    assert sol.gain == pytest.approx(abs(fset.project(0.0)))
    h = np.concatenate(([1.0, -1j, 0.0], rng.standard_normal(5) + 1j * rng.standard_normal(5)))
    ch = solver.PhasorChannel(h)
    for fset in (sets.Discrete((0.2 + 0.3j, -0.8j, 0.9, -0.8j)), sets.CustomSamples((0.5, 0.5j)),
                 W2, sets.RegularMGon(4096), sets.OnOff(), sets.Arc(-2.0, 2.0, 0.8),
                 sets.ShiftedCircle(0.3j, 0.5), sets.RisLorentz(1.6, 0.2)):
        sol = solver.greedy_quantize(ch, fset, resolution=512)
        expected = [fset.project(-phi, 512) for phi in np.angle(ch.h).tolist()]
        assert sol.weights.tolist() == expected
    assert solver.greedy_quantize(solver.PhasorChannel((-1j,)), W2).weights[0] == 1.0


# --------------------------------------------------------- angle sweep

def test_sweep_w2_tightness_pair():
    sol = solver.solve_angle_sweep(solver.PhasorChannel((1j, -1)), W2)
    assert sol.gain == pytest.approx(math.sqrt(2), abs=1e-12)
    assert sol.ratio == pytest.approx(bounds.refined_constant(W2, 2), abs=1e-12)


def test_sweep_onoff_antipodal():
    sol = solver.solve_angle_sweep(solver.PhasorChannel((1, -1)), sets.OnOff())
    assert sol.gain == pytest.approx(1.0, abs=1e-12)
    assert sol.ratio == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_sweep_single_antenna_unit_modulus(m, rng):
    phi = float(rng.uniform(0, TWO_PI))
    ch = solver.PhasorChannel((cmath.exp(1j * phi),))
    sol = solver.solve_angle_sweep(ch, sets.RegularMGon(m))
    assert sol.gain == pytest.approx(1.0, abs=1e-12)


def test_sweep_continuous_needs_resolution():
    ch = solver.PhasorChannel((1 + 0j,))
    circle = sets.ShiftedCircle(0.5j, 0.5)
    with pytest.raises(ContinuousSetNotSupported):
        solver.solve_angle_sweep(ch, circle)
    sol = solver.solve_angle_sweep(ch, circle, resolution=1024)
    # best weight is the point of largest modulus, |c| + r = 1
    assert sol.gain == pytest.approx(1.0, abs=1e-4)


def test_sweep_zero_channel():
    sol = solver.solve_angle_sweep(solver.PhasorChannel((0j, 0j)), W4)
    assert sol.gain == 0.0


def test_sweep_event_on_zero_counted_once():
    # The on/off fan boundary pi/2 shifted by arg(-1j) = -pi/2 lands on sweep
    # angle 0 up to rounding.  A start state read at theta = 0 that already
    # includes this event adds its step again, and the sweep reports gain 1.
    ch = solver.PhasorChannel((-1j, 1))
    sol = solver.solve_angle_sweep(ch, sets.OnOff())
    assert sol.gain == pytest.approx(math.sqrt(2), abs=1e-12)
    assert sol.gain == pytest.approx(solver.brute_force(ch, sets.OnOff()).gain, abs=1e-12)


# ----------------------------------------------------------- minkowski

def test_minkowski_single_antenna():
    fset = sets.Discrete((0.2 + 0.3j, -0.8j, 0.9))
    h = -0.7 + 0.4j
    sol = solver.solve_minkowski(solver.PhasorChannel((h,)), fset)
    assert sol.gain == pytest.approx(max(abs(h * p) for p in fset.points()), abs=1e-12)


def test_minkowski_w2_pair():
    sol = solver.solve_minkowski(solver.PhasorChannel((1j, -1)), W2)
    # enumerate the 4 vertex sums
    oracle = max(abs(a * 1j + b * -1) for a in (1, -1) for b in (1, -1))
    assert sol.gain == pytest.approx(oracle, abs=1e-12)
    assert sol.gain == pytest.approx(math.sqrt(2), abs=1e-12)


def test_minkowski_matches_exhaustive(rng):
    for _ in range(25):
        ch, fset = random_instance(rng, max_n=5, max_pts=5)
        sol = solver.solve_minkowski(ch, fset)
        assert sol.gain == pytest.approx(exhaustive_gain(ch, fset), rel=1e-9, abs=1e-9)


def test_minkowski_budget():
    with pytest.raises(BudgetExceeded):
        solver.solve_minkowski(solver.worst_case_channel(8), W4, budget=16)


def test_minkowski_weight_certificate(rng):
    for _ in range(20):
        ch, fset = random_instance(rng)
        sol = solver.solve_minkowski(ch, fset)
        recomputed = abs(sum(w * h for w, h in zip(sol.weights, ch.coefficients)))
        assert recomputed == pytest.approx(sol.gain, rel=1e-9, abs=1e-12)
        assert all(min(abs(w - p) for p in fset.points()) < 1e-12 for w in sol.weights)


# --------------------------------------------------------- brute force

def test_brute_force_small_cases():
    ch = solver.PhasorChannel((1, cmath.exp(1j * math.pi / 4)))
    assert solver.brute_force(ch, W4).gain == pytest.approx(
        2 * math.cos(math.pi / 8), abs=1e-12)
    assert solver.brute_force(
        solver.PhasorChannel((1, -1)), sets.OnOff()).gain == pytest.approx(1.0)
    assert solver.brute_force(solver.PhasorChannel((0j, 0j, 0j)), W4).gain == 0.0


def test_brute_force_matches_itertools(rng):
    for _ in range(10):
        ch, fset = random_instance(rng, max_n=4, max_pts=4)
        assert solver.brute_force(ch, fset).gain == pytest.approx(
            exhaustive_gain(ch, fset), abs=1e-12)


def test_brute_force_cap():
    with pytest.raises(TooLarge):
        solver.brute_force(solver.worst_case_channel(10), W4, cap=1000)


# ----------------------------------------------------------------- RIS

def test_ris_antipodal_direct():
    ch = solver.PhasorChannel((-1 + 0j,), direct=1 + 0j)
    sol = solver.ris_solve(ch, 2)
    assert sol.gain == pytest.approx(2.0, abs=1e-12)
    assert sol.weights[0] == pytest.approx(-1 + 0j, abs=1e-12)


def test_ris_quarter_turn():
    ch = solver.PhasorChannel((1j,), direct=1 + 0j)
    sol = solver.ris_solve(ch, 4)
    # enumerate the 16 augmented combinations
    oracle = max(abs(w0 * 1 + w1 * 1j)
                 for w0 in sets.RegularMGon(4).points()
                 for w1 in sets.RegularMGon(4).points())
    assert sol.gain == pytest.approx(oracle, abs=1e-12)
    assert sol.gain == pytest.approx(2.0, abs=1e-12)


def test_ris_zero_direct_reduces_to_sweep(rng):
    h = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    direct_sol = solver.ris_solve(solver.PhasorChannel(h, direct=0j), 4)
    plain_sol = solver.solve_angle_sweep(solver.PhasorChannel(h), W4)
    assert direct_sol.gain == pytest.approx(plain_sol.gain, rel=1e-9)


def test_ris_weights_stay_in_group(rng):
    for m in (2, 4, 8):
        h = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        sol = solver.ris_solve(solver.PhasorChannel(h, direct=0.5 + 0.2j), m)
        pts = sets.RegularMGon(m).points()
        assert all(min(abs(w - p) for p in pts) < 1e-12 for w in sol.weights)


def test_ris_requires_direct():
    with pytest.raises(ValueError):
        solver.ris_solve(solver.PhasorChannel((1j,)), 4)


# -------------------------------------------------------- onoff subset

def test_onoff_subset_antipodal():
    mask, ratio = solver.onoff_subset_check(solver.PhasorChannel((1, -1)))
    assert sum(mask) == 1
    assert ratio == pytest.approx(0.5, abs=1e-12)
    assert ratio >= 1 / math.pi


def test_onoff_subset_aligned():
    mask, ratio = solver.onoff_subset_check(solver.PhasorChannel((1, 1, 1)))
    assert mask == (True, True, True)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_onoff_subset_worst_case_approaches_limit():
    _, r64 = solver.onoff_subset_check(solver.worst_case_channel(64))
    _, r512 = solver.onoff_subset_check(solver.worst_case_channel(512))
    assert r64 >= 1 / math.pi - 1e-9
    assert abs(r512 - 1 / math.pi) < abs(r64 - 1 / math.pi)


def test_onoff_subset_exhaustive_matches_sweep(rng):
    for _ in range(10):
        h = tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        ch = solver.PhasorChannel(h)
        _, r_sweep = solver.onoff_subset_check(ch)
        _, r_exact = solver.onoff_subset_check(ch, exhaustive=True)
        assert r_sweep == pytest.approx(r_exact, rel=1e-9)


# ----------------------------------------------------------- invariants

@pytest.mark.parametrize("e", [-12, -6, 0, 6, 12])
def test_oracle_equivalence(rng, e):
    for _ in range(40):
        ch, fset = random_instance(rng, scale=10.0 ** e)
        g1 = solver.solve_angle_sweep(ch, fset).gain
        g3 = solver.brute_force(ch, fset).gain
        scale = max(10.0 ** e, g3)
        assert abs(g1 - g3) <= 1e-9 * scale
        g2 = solver.solve_minkowski(ch, fset).gain
        assert abs(g2 - g3) <= 1e-9 * scale


def test_universal_lower_and_upper_bounds(rng):
    for _ in range(40):
        ch, fset = random_instance(rng)
        sol = solver.solve_angle_sweep(ch, fset)
        ideal = solver.ideal_gain(ch)
        assert sol.gain >= bounds.best_constant(fset) * ideal - 1e-9
        assert sol.gain <= ideal * max(abs(p) for p in fset.points()) + 1e-12


def test_sweep_dominates_greedy(rng):
    for _ in range(40):
        ch, fset = random_instance(rng)
        assert (solver.solve_angle_sweep(ch, fset).gain
                >= solver.greedy_quantize(ch, fset).gain - 1e-12)


def test_rotation_equivariance(rng):
    for _ in range(20):
        ch, fset = random_instance(rng)
        phi = float(rng.uniform(0, TWO_PI))
        rotated = solver.PhasorChannel(
            tuple(cmath.exp(1j * phi) * h for h in ch.coefficients))
        g0 = solver.solve_angle_sweep(ch, fset).gain
        g1 = solver.solve_angle_sweep(rotated, fset).gain
        assert abs(g0 - g1) <= 1e-9 * max(1.0, g0)


# Coordinates on a 1/8 grid keep every set inside the unit disk and make
# duplicate and collinear points exactly degenerate; continuous float
# coordinates, subnormals included, make them nearly degenerate.
_grid = st.integers(-5, 5).map(lambda k: k / 8)
_point = st.builds(complex, _grid, _grid)
_coordinate = st.floats(-0.7, 0.7, allow_subnormal=True)
_feasible = st.one_of(
    st.lists(st.builds(complex, _coordinate, _coordinate), min_size=1, max_size=5),
    st.lists(_point, min_size=1, max_size=5),
    st.tuples(_point, _point).map(list),
    st.lists(_point, min_size=1, max_size=2).flatmap(
        lambda base: st.lists(st.sampled_from(base), min_size=2, max_size=5)),
    st.builds(lambda a, b, ks: [a + (k / 4) * (b - a) for k in ks],
              _point, _point, st.lists(st.integers(0, 4), min_size=2, max_size=5)),
).map(lambda pts: sets.Discrete(tuple(pts)))
_phase = st.floats(-math.pi, math.pi)
_coefficient = st.one_of(
    st.just(0j), st.builds(lambda r, phi: r * cmath.exp(1j * phi), st.floats(0.1, 1.0), _phase))


# 500 examples: the float sets of the first 300 are all still hulled right
# with an absolute 1e-12 turn tolerance
@settings(max_examples=500, deadline=None, derandomize=True)
@given(fset=_feasible, h=st.lists(_coefficient, min_size=1, max_size=6),
       e=st.sampled_from(range(-12, 13)), phi=_phase)  # st.integers seldom reaches the ends
def test_sweep_properties(fset, h, e, phi):
    ch = solver.PhasorChannel(tuple(10.0 ** e * x for x in h))
    ideal = solver.ideal_gain(ch)
    # sums of N terms |h_n w_n| carry rounding relative to this scale
    tol = 1e-12 * ideal * max(abs(p) for p in fset.points())
    gain = solver.solve_angle_sweep(ch, fset).gain
    assert gain == pytest.approx(solver.brute_force(ch, fset).gain, rel=1e-12, abs=tol)
    assert gain >= bounds.best_constant(fset) * ideal * (1.0 - 1e-12)
    rotated = solver.PhasorChannel(tuple(cmath.exp(1j * phi) * x for x in ch.coefficients))
    assert solver.solve_angle_sweep(rotated, fset).gain == pytest.approx(gain, rel=1e-12, abs=tol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fset=_feasible, h=st.lists(_coefficient, min_size=1, max_size=6),
       e=st.sampled_from(range(-12, 13)))  # st.integers seldom reaches the ends
def test_minkowski_properties(fset, h, e):
    ch = solver.PhasorChannel(tuple(10.0 ** e * x for x in h))
    tol = 1e-12 * solver.ideal_gain(ch) * max(abs(p) for p in fset.points())
    sol = solver.solve_minkowski(ch, fset)
    assert sol.gain == pytest.approx(solver.brute_force(ch, fset).gain, rel=1e-12, abs=tol)
    assert set(sol.weights.tolist()) <= set(fset.points())


@pytest.mark.parametrize("points", [
    (0j, -0.5j, -5.27e-282 + 0j),
    (0j, 0.5 + 0j, -1.2e-301 + 0.25j, -2.2e-311 + 0.5j),
])
def test_sweep_on_nearly_collinear_sets(points):
    # hulls whose turns lie far below any absolute tolerance
    fset = sets.Discrete(points)
    for h in ((1 + 0j,), (0.3 - 0.8j, -0.6 + 0.1j)):
        ch = solver.PhasorChannel(h)
        gain = solver.solve_angle_sweep(ch, fset).gain
        assert gain == pytest.approx(solver.brute_force(ch, fset).gain, rel=1e-12)
        assert gain >= bounds.best_constant(fset) * solver.ideal_gain(ch) * (1.0 - 1e-12)
        assert solver.solve_minkowski(ch, fset).gain == pytest.approx(gain, rel=1e-12)


def test_minkowski_matches_sweep_at_large_n(rng):
    # brute force cannot reach N = 2048, so the independent sweep is the reference
    ch = solver.PhasorChannel(rng.standard_normal(2048) + 1j * rng.standard_normal(2048))
    sol = solver.solve_minkowski(ch, W4)
    assert sol.gain == pytest.approx(solver.solve_angle_sweep(ch, W4).gain, rel=1e-9)
    assert abs(np.dot(sol.weights, ch.h)) == pytest.approx(sol.gain, rel=1e-12)


def test_rotation_by_group_element_preserves_weight_multiset(rng):
    m = 4
    for _ in range(10):
        h = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        ch = solver.PhasorChannel(h)
        phi = TWO_PI / m
        rotated = solver.PhasorChannel(tuple(cmath.exp(1j * phi) * x for x in h))
        g0 = solver.solve_angle_sweep(ch, sets.RegularMGon(m)).gain
        g1 = solver.solve_angle_sweep(rotated, sets.RegularMGon(m)).gain
        assert g0 == pytest.approx(g1, rel=1e-12)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 2), (4, 4), (8, 3)])
def test_tightness_ratio_equals_refined_constant(m, n):
    fset = sets.RegularMGon(m)
    sol = solver.solve_angle_sweep(solver.tightness_channel(m, n), fset)
    assert sol.ratio == pytest.approx(bounds.refined_constant(fset, n), abs=1e-9)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_worst_case_ratio_converges(m):
    fset = sets.RegularMGon(m)
    limit = (m / math.pi) * math.sin(math.pi / m)
    sol = solver.solve_angle_sweep(solver.worst_case_channel(512), fset)
    assert abs(sol.ratio - limit) <= 1e-4
    # never below the fixed-N floor, which itself sits above the limit
    assert sol.ratio >= bounds.refined_constant(fset, 512) - 1e-12
    assert bounds.refined_constant(fset, 512) >= limit


def test_solution_self_consistency(rng):
    for _ in range(20):
        ch, fset = random_instance(rng)
        sol = solver.solve_angle_sweep(ch, fset)
        recomputed = abs(sum(w * h for w, h in zip(sol.weights, ch.coefficients)))
        assert recomputed == pytest.approx(sol.gain, rel=1e-9, abs=1e-12)
        assert 0.0 <= sol.ratio <= 1.0 + 1e-12
