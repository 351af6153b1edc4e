"""2-D convex geometry on the complex plane.

Polygons are tuples of complex vertices in counter-clockwise order,
rotated so the lexicographically smallest vertex (real part first, then
imaginary part) comes first.  Degenerate polygons with 0, 1 or 2 vertices
are allowed; a 2-vertex polygon is a segment, whose perimeter is twice
its length so that perimeter = integral of the support function holds
uniformly.

The hull and the strict-convexity check decide every turn by the exact
sign of an orientation determinant (`_orient`), so the vertices they keep
depend neither on the scale of the points nor on how finely a curve was
sampled.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, EmptyPolygon

TWO_PI = 2.0 * math.pi

# Shewchuk's orient2d error bound ("Adaptive precision floating-point
# arithmetic and fast robust geometric predicates", 1997): where the
# rounded determinant exceeds it times |detleft| + |detright|, its sign is
# the exact sign.  The bound is relative, so it does not hold where the
# products may have underflowed; below _ORIENT_TINY the sign is computed
# exactly instead.
_U = np.finfo(float).eps / 2.0  # unit roundoff, 2**-53
_ORIENT_BOUND = (3.0 + 16.0 * _U) * _U
_ORIENT_TINY = np.finfo(float).tiny / _U ** 2


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _cross(o: complex, a: complex, b: complex) -> float:
    """Cross product of (a - o) and (b - o)."""
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact sign of cross(b - a, c - a) elementwise, and its rounded value.

    Returns (sign, det).  sign is +1 where a, b, c turn counter-clockwise,
    -1 where they turn clockwise and 0 where they are collinear: a float
    filter decides almost every triple, the rest are evaluated in integer
    arithmetic.  det is the determinant rounded to float, twice the signed
    area of the triangle.  It is taken from b, so a point b close to one
    end of a long segment a-c keeps its digits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ab, cb = a - b, c - b
        detleft = cb.real * ab.imag
        detright = cb.imag * ab.real
        det = detleft - detright
        detsum = np.abs(detleft, out=detleft)
        detsum += np.abs(detright, out=detright)
        # NaN or inf from overflow fails both comparisons: undecided too
        sure = np.abs(det) > _ORIENT_BOUND * detsum
        sure &= detsum >= _ORIENT_TINY
    sign = np.sign(det)
    if not sure.all():
        unsure = np.flatnonzero(~sure)
        ab, cb = ab[unsure], cb[unsure]
        # A difference of floats rounds to 0 only where it is 0, so with a
        # zero factor in both products det is exactly 0.
        zero = ((cb.real == 0) | (ab.imag == 0)) & ((cb.imag == 0) | (ab.real == 0))
        sign[unsure[zero]] = 0
        for k in unsure[~zero]:
            sign[k] = _exact_orient(a[k], b[k], c[k])
    return sign, det


def _exact_orient(a: complex, b: complex, c: complex) -> int:
    """Sign of cross(b - a, c - a) in integer arithmetic.

    Every finite float is an integer over a power of two, so the six
    coordinates are brought to their largest denominator.
    """
    ratios = [x.as_integer_ratio() for x in (a.real, a.imag, b.real, b.imag, c.real, c.imag)]
    den = max(d for _, d in ratios)
    ax, ay, bx, by, cx, cy = (n * (den // d) for n, d in ratios)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, CCW, canonically rotated.

    Construction validates strict convexity for >= 3 vertices by the exact
    orientation sign and applies the canonical rotation, so equality
    between polygons is testable.  `array` holds the vertices as a
    read-only complex128 array.
    """

    vertices: tuple = ()

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=complex).ravel()
        finite = np.isfinite(verts)
        if not finite.all():
            raise ValueError(f"non-finite vertex {complex(verts[~finite][0])!r}")
        if len(verts) >= 3:
            closed = np.concatenate((verts, verts[:2]))
            if not (_orient(closed[:-2], closed[1:-1], closed[2:])[0] > 0).all():
                raise ValueError("vertices are not strictly convex CCW")
        elif len(verts) == 2 and verts[0] == verts[1]:
            raise ValueError("duplicate vertices in a 2-vertex polygon")
        if len(verts):
            k = np.lexsort((verts.imag, verts.real))[0]
            verts = np.concatenate((verts[k:], verts[:k]))
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", tuple(verts.tolist()))
        object.__setattr__(self, "_array", verts)

    def __len__(self):
        return len(self.vertices)

    @property
    def array(self) -> np.ndarray:
        return self._array


@dataclass(frozen=True)
class SupportEvaluation:
    """Value of the support function and the vertex attaining it."""

    value: float
    argmax_vertex: int


def _chain(pts: np.ndarray) -> np.ndarray:
    """Lower hull chain of distinct, lexicographically sorted points.

    A point is dropped where two points that straddle it in sort order do
    not turn strictly left around it: it lies on or above their segment,
    so it is no vertex of the lower hull.  Each pass tests every inner
    survivor at once against its two neighbours, and those that pass,
    other than anchors, against the two anchors around them.  The anchors
    start as the two ends; each pass adds, between two anchors, the
    survivor farthest below their segment (a quickhull step).  So points
    hidden behind a few far points go in a few passes, and the dents of a
    sampled curve in about log2 of its sample count; only hull vertices
    spaced so unevenly that each quickhull step splits off one of them,
    with points hidden between them, cost a pass per vertex.  Once every
    neighbour triple turns left, the survivors form a strictly convex
    chain.
    """
    anchor = np.zeros(len(pts), dtype=bool)
    anchor[[0, -1]] = True
    while len(pts) > 2:
        keep = _orient(pts[:-2], pts[1:-1], pts[2:])[0] > 0
        if keep.all():
            break
        seg = np.cumsum(anchor) - 1  # the anchor at or before each point
        at = np.flatnonzero(anchor)
        q = np.flatnonzero(keep & ~anchor[1:-1]) + 1  # kept by the neighbour test
        sign, det = _orient(pts[at[seg[q]]], pts[q], pts[at[seg[q] + 1]])
        keep[q[sign <= 0] - 1] = False
        depth = np.full(len(pts), -np.inf)
        depth[q] = det
        deepest = np.fmax.reduceat(depth, at[:-1])[seg[:-1]]
        anchor[:-1] |= (depth[:-1] == deepest) & (depth[:-1] > 0)
        survive = np.concatenate(([True], keep, [True]))
        pts, anchor = pts[survive], anchor[survive]
    return pts


def convex_hull(points) -> ConvexPolygon:
    """Minimal CCW hull of a point cloud.

    One lexicographic sort, after which duplicate points are dropped, then
    the lower and the upper chain by simultaneous pruning passes
    (`_chain`).  Every turn is decided by the exact orientation sign, so
    collinear points are removed exactly and strict vertices are kept, at
    any scale.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if not len(pts):
        raise EmptyInput("convex_hull of an empty point list")
    finite = np.isfinite(pts)
    if not finite.all():
        raise ValueError(f"non-finite point {complex(pts[~finite][0])!r}")
    pts = np.sort(pts)  # by real part, then imaginary part
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    if len(pts) == 1:
        return ConvexPolygon(pts)
    return ConvexPolygon(np.concatenate((_chain(pts)[:-1], _chain(pts[::-1])[:-1])))


def support(poly: ConvexPolygon, theta: float) -> SupportEvaluation:
    """Support function max_v Re(e^{-j theta} v), ties to the lowest index."""
    if len(poly) == 0:
        raise EmptyPolygon("support of an empty polygon")
    vals = (cmath.exp(-1j * theta) * poly.array).real
    idx = int(np.argmax(vals))
    return SupportEvaluation(float(vals[idx]), idx)


def support_values(poly: ConvexPolygon, thetas) -> np.ndarray:
    """Vectorized support values over an array of directions."""
    if len(poly) == 0:
        raise EmptyPolygon("support of an empty polygon")
    thetas = np.asarray(thetas, dtype=float)
    phases = np.exp(-1j * thetas)
    return (phases[:, None] * poly.array[None, :]).real.max(axis=1)


def width(poly: ConvexPolygon, theta: float) -> float:
    """Extent of the polygon along direction theta."""
    return support(poly, theta).value + support(poly, theta + math.pi).value


def mean_width(poly: ConvexPolygon, n_samples: int) -> float:
    """Midpoint-rule average of the width over [0, 2*pi)."""
    if len(poly) == 0:
        raise EmptyPolygon("mean_width of an empty polygon")
    if n_samples < 8:
        raise ValueError("n_samples must be >= 8")
    thetas = (np.arange(n_samples) + 0.5) * (TWO_PI / n_samples)
    w = support_values(poly, thetas) + support_values(poly, thetas + math.pi)
    return float(w.mean())


def perimeter(poly: ConvexPolygon) -> float:
    """Perimeter; twice the length for a segment, 0 for a point or empty."""
    verts = poly.array
    return float(np.abs(np.roll(verts, -1) - verts).sum())


def _normal_arcs(poly: ConvexPolygon):
    """Arcs of the normal fan as arrays (lo, hi), one entry per vertex.

    Vertex k is the support argmax for directions in [lo[k], hi[k]], with
    hi - lo > 0 and the arcs covering [lo, lo + 2*pi).  The outward normal
    of edge k -> k+1 ends arc k and starts arc k+1; a segment's two
    opposite half-edges give its two half-turn arcs.  Only defined for
    polygons with >= 2 vertices.
    """
    verts = poly.array
    if len(verts) < 2:
        raise ValueError("normal fan needs >= 2 vertices")
    psi = np.angle(np.roll(verts, -1) - verts) - 0.5 * math.pi
    lo = np.roll(psi, 1)
    return lo, lo + (psi - lo) % TWO_PI


def normal_fan(poly: ConvexPolygon):
    """Sorted fan boundaries and argmax vertex just after each boundary.

    Returns (boundaries, after) where boundaries is an ascending array in
    [0, 2*pi) and after[i] is the argmax vertex index for directions in
    (boundaries[i], boundaries[i+1]).
    """
    lo, _ = _normal_arcs(poly)
    bounds = lo % TWO_PI
    after = np.argsort(bounds)
    return bounds[after], after


def argmax_vertex(poly: ConvexPolygon, theta: float, fan=None) -> int:
    """Support argmax vertex via the normal fan (single-vertex safe)."""
    if len(poly) == 1:
        return 0
    if fan is None:
        fan = normal_fan(poly)
    bounds, after = fan
    i = int(np.searchsorted(bounds, theta % TWO_PI, side="right")) - 1
    return int(after[i])  # i == -1 wraps to the last arc


def min_support(poly: ConvexPolygon) -> float:
    """Exact minimum of the support function over all directions.

    Each arc of the normal fan carries the sinusoid |v| cos(theta - arg v);
    candidates are the arc endpoints and the trough at arg v + pi when it
    falls inside the arc.
    """
    m = len(poly)
    if m == 0:
        raise EmptyPolygon("min_support of an empty polygon")
    if m == 1:
        return -abs(poly.vertices[0])
    lo, hi = _normal_arcs(poly)
    r, a = np.abs(poly.array), np.angle(poly.array)
    # the trough shifted into [lo, hi] modulo 2*pi
    trough = (a + math.pi - lo) % TWO_PI <= hi - lo
    vals = np.where(trough, -r, np.minimum(r * np.cos(lo - a), r * np.cos(hi - a)))
    return float(np.where(r > 0.0, vals, 0.0).min())  # +0.0, not -0.0, at the origin


def support_integral(poly: ConvexPolygon) -> float:
    """Exact integral of the support function over [0, 2*pi].

    Equals the perimeter (Cauchy's surface area formula); used as the
    closed-form reference for the quadrature-based mean width.
    """
    m = len(poly)
    if m == 0:
        raise EmptyPolygon("support_integral of an empty polygon")
    if m == 1:
        return 0.0
    lo, hi = _normal_arcs(poly)
    r, a = np.abs(poly.array), np.angle(poly.array)
    return float((r * (np.sin(hi - a) - np.sin(lo - a))).sum())


# A vertex of a merged edge walk is kept only where the walk turns by more
# than the rounding its coordinates can carry: they come from the products
# h_n * v and from one sum per merge level, each off by a few units of eps
# times the operands' magnitude S.  Dropping a vertex whose turn is below
# the bound moves the boundary by at most about TURN_TOL * S.
TURN_TOL = 16 * np.finfo(float).eps


def _edge_angles(verts: np.ndarray):
    """Bottom vertex (lowest, then leftmost) and the edge angles from it.

    Walked CCW from the bottom vertex, the edge angles rise through
    [0, 2*pi).  A 2-vertex input gives its two half-edges, a 1-vertex
    input one zero edge.
    """
    start = int(np.lexsort((verts.real, verts.imag))[0])
    walk = np.concatenate((verts[start:], verts[:start + 1]))
    return start, np.angle(walk[1:] - walk[:-1]) % TWO_PI


def minkowski_sum_indexed(averts, bverts):
    """Minkowski sum by one merge of the two edge tables, with contributors.

    Inputs are CCW convex vertex cycles (1, 2 or >= 3 points, repeats
    allowed).  Returns
    (vertices, (i, j)): a CCW cycle and two index arrays with
    vertices[k] == averts[i[k]] + bverts[j[k]].
    """
    a = np.asarray(averts, dtype=complex)
    b = np.asarray(bverts, dtype=complex)
    if not len(a) or not len(b):
        raise EmptyPolygon("minkowski sum with an empty polygon")
    sa, ang_a = _edge_angles(a)
    sb, ang_b = _edge_angles(b)
    # Vertex k of the walk is reached by crossing merged edges 0..k; each
    # side's contributor is the end of the last of its edges crossed.  Only
    # the count crossed on each side matters, so rounding that swaps two
    # nearly parallel edges of one side changes nothing.  On a tie between
    # the sides, the vertex between the two edges is pruned as collinear.
    from_a = np.argsort(np.concatenate((ang_a, ang_b)), kind="stable") < len(a)
    crossed_a = np.cumsum(from_a)
    i = (crossed_a + sa) % len(a)
    j = (np.arange(sb + 1, sb + 1 + len(from_a)) - crossed_a) % len(b)
    pts = a[i] + b[j]
    keep = _corners(pts, np.abs(a).max() + np.abs(b).max())
    return pts[keep], (i[keep], j[keep])


def _edges_out(pts: np.ndarray) -> np.ndarray:
    """pts[k + 1] - pts[k] around a closed walk."""
    closed = np.concatenate((pts, pts[:1]))
    return closed[1:] - closed[:-1]


def _corners(pts: np.ndarray, scale: float) -> np.ndarray:
    """Indices of the corners of a closed convex walk, in order.

    A vertex is a corner where the walk turns left, or reverses, by more
    than the rounding bound TURN_TOL * scale * (|d_in| + |d_out|).  Points
    closer than TURN_TOL * scale to the next one are merged into it first.
    A walk with no corner is a point: its first vertex is kept.
    """
    tol = TURN_TOL * scale
    idx = np.flatnonzero(np.abs(_edges_out(pts)) > tol)
    d_out = _edges_out(pts[idx])
    d_in = np.concatenate((d_out[-1:], d_out[:-1]))
    turn = d_in.conjugate() * d_out  # (dot, cross) of the two edges
    bound = tol * (np.abs(d_in) + np.abs(d_out))
    idx = idx[(turn.imag > bound) | (turn.real < -bound)]
    return idx if len(idx) else np.zeros(1, dtype=int)


def minkowski_sum(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Minkowski sum of two convex polygons."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyPolygon("minkowski_sum of an empty polygon")
    pts, _ = minkowski_sum_indexed(a.vertices, b.vertices)
    # re-hull to restore strict convexity after floating-point pruning
    return convex_hull(pts)


def scale_rotate(poly: ConvexPolygon, h: complex) -> ConvexPolygon:
    """Multiply every vertex by h; h = 0 collapses to the origin."""
    if h == 0:
        return ConvexPolygon((0j,)) if len(poly) else poly
    return ConvexPolygon(poly.array * h)


def contains(poly: ConvexPolygon, z: complex, eps: float = 1e-9) -> bool:
    """Whether z lies in the polygon (boundary included, tolerance eps)."""
    m = len(poly)
    if m == 0:
        return False
    if m == 1:
        return abs(z - poly.vertices[0]) <= eps
    if m == 2:
        a, b = poly.vertices
        d = b - a
        t = ((z - a).real * d.real + (z - a).imag * d.imag) / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(z - (a + t * d)) <= eps
    for k in range(m):
        if _cross(poly.vertices[k], poly.vertices[(k + 1) % m], z) < -eps:
            return False
    return True
