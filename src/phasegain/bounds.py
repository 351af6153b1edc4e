"""Worst-case shortfall constants for nonideal phase-shifter sets.

The central quantity is perimeter(Conv W) / (2*pi): the tight universal
lower bound on the achievable fraction of the ideal beamforming gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from . import geometry
from .errors import DegenerateSet, NotPolygon, Unsupported
from .geometry import TWO_PI
from .sets import DEFAULT_RESOLUTION, FeasibleSet


@dataclass(frozen=True)
class BoundReport:
    perimeter: float
    best_constant: float
    shortfall_db: float | None
    crude_constant: float
    hull_vertex_count: int
    refined_constant: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def best_constant(fset: FeasibleSet, resolution: int = DEFAULT_RESOLUTION) -> float:
    """perimeter(Conv W) / (2*pi)."""
    return geometry.perimeter(fset.to_polygon(resolution)) / TWO_PI


def shortfall_db(fset: FeasibleSet, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Worst-case gain shortfall in dB (amplitude convention, <= 0)."""
    c = best_constant(fset, resolution)
    if c <= 0.0:
        raise DegenerateSet("zero-perimeter set has no finite dB shortfall")
    return 20.0 * math.log10(c)


def crude_constant(fset: FeasibleSet, resolution: int = DEFAULT_RESOLUTION) -> float:
    """The looser min-over-directions support constant (cos(pi/M) for W_M)."""
    return geometry.min_support(fset.to_polygon(resolution))


def refined_constant(fset: FeasibleSet, N: int,
                     resolution: int = DEFAULT_RESOLUTION) -> float:
    """Slightly tighter constant for a fixed number of antennas N.

    Requires the hull to be a polygon with M >= 2 vertices; a segment
    counts as M = 2.  Decreases monotonically in N towards best_constant.
    """
    if not fset.is_polygonal:
        raise NotPolygon(f"{type(fset).__name__} has a non-polygonal hull")
    poly = fset.to_polygon(resolution)
    if len(poly) < 2:
        raise NotPolygon("hull degenerates to a point")
    return _refined(geometry.perimeter(poly), len(poly), N)


def _refined(per: float, m: int, N: int) -> float:
    if N < 1:
        raise ValueError("N must be >= 1")
    return per / (2.0 * m * N * math.sin(math.pi / (m * N)))


def asymptotic_constants(M: int) -> tuple[float, float]:
    """Large-M expansions of the crude and best constants for W_M."""
    if M < 2:
        raise ValueError("M must be >= 2")
    return (1.0 - math.pi ** 2 / (2.0 * M * M),
            1.0 - math.pi ** 2 / (6.0 * M * M))


def onoff_small_n_constant(N: int) -> float:
    """Best constant for the on-off set at N = 2 or 3 antennas."""
    if N == 2:
        return 0.5
    if N == 3:
        return 1.0 / 3.0
    raise Unsupported(f"no known on-off constant for N = {N}")


def build_report(fset: FeasibleSet, N: int | None = None,
                 resolution: int = DEFAULT_RESOLUTION) -> BoundReport:
    """Assemble the full constants report for one feasible set."""
    poly = fset.to_polygon(resolution)
    per = geometry.perimeter(poly)
    best = per / TWO_PI
    refined = None
    if N is not None and fset.is_polygonal and len(poly) >= 2:
        refined = _refined(per, len(poly), N)
    return BoundReport(
        perimeter=per,
        best_constant=best,
        shortfall_db=20.0 * math.log10(best) if best > 0.0 else None,
        crude_constant=geometry.min_support(poly),
        hull_vertex_count=len(poly),
        refined_constant=refined,
    )
