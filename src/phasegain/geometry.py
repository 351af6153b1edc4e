"""2-D convex geometry on the complex plane.

Polygons are tuples of complex vertices in counter-clockwise order,
rotated so the lexicographically smallest vertex (real part first, then
imaginary part) comes first.  Degenerate polygons with 0, 1 or 2 vertices
are allowed; a 2-vertex polygon is a segment, whose perimeter is twice
its length so that perimeter = integral of the support function holds
uniformly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, EmptyPolygon

EPS_HULL = 1e-12

TWO_PI = 2.0 * math.pi


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _cross(o: complex, a: complex, b: complex) -> float:
    """Cross product of (a - o) and (b - o)."""
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _canonical_rotation(vertices):
    """Rotate the vertex cycle so the lexicographic minimum comes first."""
    if len(vertices) <= 1:
        return tuple(vertices)
    start = min(range(len(vertices)), key=lambda i: (vertices[i].real, vertices[i].imag))
    return tuple(vertices[start:]) + tuple(vertices[:start])


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, CCW, canonically rotated.

    Construction validates strict convexity for >= 3 vertices and applies
    the canonical rotation, so equality between polygons is testable.
    """

    vertices: tuple = ()

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        for v in verts:
            if not _is_finite(v):
                raise ValueError(f"non-finite vertex {v!r}")
        if len(verts) >= 3:
            m = len(verts)
            for k in range(m):
                if _cross(verts[k], verts[(k + 1) % m], verts[(k + 2) % m]) <= EPS_HULL:
                    raise ValueError("vertices are not strictly convex CCW")
        elif len(verts) == 2 and verts[0] == verts[1]:
            raise ValueError("duplicate vertices in a 2-vertex polygon")
        object.__setattr__(self, "vertices", _canonical_rotation(verts))

    def __len__(self):
        return len(self.vertices)

    @property
    def array(self) -> np.ndarray:
        arr = self.__dict__.get("_array")
        if arr is None:
            arr = np.asarray(self.vertices, dtype=complex)
            object.__setattr__(self, "_array", arr)
        return arr


@dataclass(frozen=True)
class SupportEvaluation:
    """Value of the support function and the vertex attaining it."""

    value: float
    argmax_vertex: int


def convex_hull(points) -> ConvexPolygon:
    """Minimal CCW hull of a point cloud (monotone chain).

    Duplicate and collinear points are removed using the absolute
    cross-product tolerance EPS_HULL.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise EmptyInput("convex_hull of an empty point list")
    for p in pts:
        if not _is_finite(p):
            raise ValueError(f"non-finite point {p!r}")
    pts = sorted(set((p.real, p.imag) for p in pts))
    pts = [complex(x, y) for x, y in pts]
    if len(pts) == 1:
        return ConvexPolygon((pts[0],))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= EPS_HULL:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:  # fully collinear input collapses both chains
        hull = [pts[0], pts[-1]]
    return ConvexPolygon(tuple(hull))


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
    return ConvexPolygon(tuple(v * h for v in poly.vertices))


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
