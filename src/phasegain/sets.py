"""Feasible beamforming-coefficient sets and their convex hulls.

Every member of a feasible set has modulus at most 1 (up to 1e-12).
Discrete variants expose their points directly; continuous variants are
represented by a boundary parameterization, which suffices because the
objective is linear so only the hull boundary ever matters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BadParameter
from .geometry import TWO_PI

DEFAULT_RESOLUTION = 4096
MODULUS_TOL = 1e-12
_PROJECT_BLOCK = 1 << 18  # (angle, member) scores held at once by project


def _wrap_to(angle: np.ndarray, center: float) -> np.ndarray:
    """Wrap angles into [center - pi, center + pi)."""
    return angle - TWO_PI * np.floor((angle - center) / TWO_PI + 0.5)


class FeasibleSet:
    """Base class; concrete sets are either discrete or continuous."""

    is_discrete = False
    is_polygonal = False

    def points(self) -> tuple:
        raise BadParameter(f"{type(self).__name__} has no finite point list")

    def boundary_samples(self, resolution: int) -> np.ndarray:
        raise NotImplementedError

    def to_polygon(self, resolution: int = DEFAULT_RESOLUTION) -> geometry.ConvexPolygon:
        """Convex hull of the set (exact for discrete, inscribed for continuous).

        Built once per resolution and kept on the instance; a discrete
        set's hull does not depend on the resolution.
        """
        key = None if self.is_discrete else resolution
        poly = self._hulls.get(key)
        if poly is None:
            if self.is_discrete:
                poly = geometry.convex_hull(self.points())
            elif resolution < 3:
                raise BadParameter("resolution must be >= 3 for continuous sets")
            else:
                poly = geometry.convex_hull(self.boundary_samples(resolution))
            self._hulls[key] = poly
        return poly

    @functools.cached_property
    def _hulls(self) -> dict:
        return {}

    def project(self, phi, resolution: int = DEFAULT_RESOLUTION):
        """argmax over the set of Re(e^{-j phi} w), ties to the lowest index.

        `phi` may be an array of angles; the result is then an array of the
        same shape, one member per angle.
        """
        phis = np.asarray(phi, dtype=float)
        w = self._project(phis.ravel(), resolution).reshape(phis.shape)
        return w if phis.ndim else complex(w)

    def _project(self, phis: np.ndarray, resolution: int) -> np.ndarray:
        if self.is_discrete:
            pts = np.asarray(self.points(), dtype=complex)
        else:
            pts = self.boundary_samples(resolution)
        best = np.empty(len(phis), dtype=int)
        rows = max(1, _PROJECT_BLOCK // len(pts))
        for s in range(0, len(phis), rows):
            rot = np.exp(-1j * phis[s:s + rows])
            best[s:s + rows] = np.multiply.outer(rot, pts).real.argmax(axis=1)
        return pts[best]

    def descriptor(self) -> dict:
        raise NotImplementedError


def _check_points(pts) -> tuple:
    out = tuple(complex(p) for p in pts)
    if not out:
        raise BadParameter("discrete set needs at least one point")
    for p in out:
        if not geometry._is_finite(p):
            raise BadParameter(f"non-finite point {p!r}")
        if abs(p) > 1.0 + MODULUS_TOL:
            raise BadParameter(f"point {p!r} lies outside the unit disk")
    return out


@dataclass(frozen=True)
class Discrete(FeasibleSet):
    members: tuple

    is_discrete = True
    is_polygonal = True

    def __post_init__(self):
        object.__setattr__(self, "members", _check_points(self.members))

    def points(self):
        return self.members

    def descriptor(self):
        return {"type": "discrete", "points": [[p.real, p.imag] for p in self.members]}


@dataclass(frozen=True)
class CustomSamples(Discrete):
    """User-supplied samples of an arbitrary set; handled like Discrete."""

    def descriptor(self):
        return {"type": "samples", "points": [[p.real, p.imag] for p in self.members]}


@dataclass(frozen=True)
class RegularMGon(FeasibleSet):
    """The M-th roots of unity: a log2(M)-bit uniform phase shifter."""

    M: int

    is_discrete = True
    is_polygonal = True

    def __post_init__(self):
        if self.M < 1:
            raise BadParameter("M must be >= 1")

    def points(self):
        return self._points

    @functools.cached_property
    def _points(self) -> tuple:
        return tuple(np.exp(2j * math.pi * np.arange(self.M) / self.M).tolist())

    def descriptor(self):
        return {"type": "regular", "M": self.M}


@dataclass(frozen=True)
class OnOff(FeasibleSet):
    """On-off switching: coefficients {0, 1}."""

    is_discrete = True
    is_polygonal = True

    def points(self):
        return (0j, 1 + 0j)

    def descriptor(self):
        return {"type": "onoff"}


@dataclass(frozen=True)
class Arc(FeasibleSet):
    """Constant-modulus phase shifter with a limited phase range."""

    phi_min: float
    phi_max: float
    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.radius <= 1.0 + MODULUS_TOL:
            raise BadParameter("arc radius must lie in [0, 1]")
        if self.phi_max < self.phi_min:
            raise BadParameter("phi_max must be >= phi_min")
        if self.phi_max - self.phi_min > TWO_PI:
            raise BadParameter("arc spans more than a full turn")

    def boundary_samples(self, resolution: int) -> np.ndarray:
        phis = np.linspace(self.phi_min, self.phi_max, resolution)
        return self.radius * np.exp(1j * phis)

    def _project(self, phis: np.ndarray, resolution: int) -> np.ndarray:
        t = _wrap_to(phis, 0.5 * (self.phi_min + self.phi_max))
        return self.radius * np.exp(1j * np.clip(t, self.phi_min, self.phi_max))

    def descriptor(self):
        return {
            "type": "arc",
            "phi_min": self.phi_min,
            "phi_max": self.phi_max,
            "radius": self.radius,
        }


@dataclass(frozen=True)
class ShiftedCircle(FeasibleSet):
    """Circle of given center and radius, e.g. a lossy vector modulator."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        if self.radius < 0:
            raise BadParameter("radius must be >= 0")
        if abs(self.center) + self.radius > 1.0 + 1e-9:
            raise BadParameter("shifted circle exits the unit disk")

    def boundary_samples(self, resolution: int) -> np.ndarray:
        phis = np.arange(resolution) * (TWO_PI / resolution)
        return self.center + self.radius * np.exp(1j * phis)

    def _project(self, phis: np.ndarray, resolution: int) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * phis)

    def descriptor(self):
        return {
            "type": "circle",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
        }


@dataclass(frozen=True)
class RisLorentz(FeasibleSet):
    """Lorentzian-constrained RIS response r(t) e^{jt}.

    r(t) = (1 - beta) * ((1 + sin t) / 2)^alpha + beta.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise BadParameter("alpha must be > 0")
        if not 0.0 <= self.beta <= 1.0:
            raise BadParameter("beta must lie in [0, 1]")

    def _radius(self, t: np.ndarray) -> np.ndarray:
        return (1.0 - self.beta) * ((1.0 + np.sin(t)) / 2.0) ** self.alpha + self.beta

    def boundary_samples(self, resolution: int) -> np.ndarray:
        t = np.arange(resolution) * (TWO_PI / resolution)
        return self._radius(t) * np.exp(1j * t)

    def descriptor(self):
        return {"type": "ris", "alpha": self.alpha, "beta": self.beta}


def from_descriptor(desc: dict) -> FeasibleSet:
    """Build a feasible set from its JSON descriptor."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise BadParameter("set descriptor must be an object with a 'type' key")
    kind = desc["type"]
    try:
        if kind == "regular":
            return RegularMGon(int(desc["M"]))
        if kind == "onoff":
            return OnOff()
        if kind == "discrete":
            return Discrete(tuple(complex(p[0], p[1]) for p in desc["points"]))
        if kind == "samples":
            return CustomSamples(tuple(complex(p[0], p[1]) for p in desc["points"]))
        if kind == "arc":
            return Arc(float(desc["phi_min"]), float(desc["phi_max"]),
                       float(desc.get("radius", 1.0)))
        if kind == "circle":
            return ShiftedCircle(complex(desc["center"][0], desc["center"][1]),
                                 float(desc["radius"]))
        if kind == "ris":
            return RisLorentz(float(desc["alpha"]), float(desc["beta"]))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"malformed {kind!r} descriptor: {exc}") from exc
    raise BadParameter(f"unknown set type {kind!r}")
