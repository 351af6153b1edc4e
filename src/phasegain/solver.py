"""Exact and baseline solvers for the nonideal beamforming problem.

The objective is g(w) = |sum_n w_n h_n| with every w_n drawn from one
feasible set W.  The angle sweep and the Minkowski-sum solver are both
exact for finite W and are validated against exhaustive search.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import string
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    BudgetExceeded,
    ContinuousSetNotSupported,
    NotAGroup,
    TooLarge,
)
from .geometry import TWO_PI
from .sets import DEFAULT_RESOLUTION, FeasibleSet, OnOff, RegularMGon

MINKOWSKI_BUDGET = 1_000_000
BRUTE_FORCE_CAP = 10_000_000
_BLANK = string.whitespace + ","  # a CSV row of only these is blank


_floats = functools.partial(np.array, dtype=float)


def _csv_floats(lines: list) -> np.ndarray:
    # loadtxt converts in C, without a Python string per field
    if not lines:
        return np.empty(0)
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _pairs(parse, values, what: str) -> np.ndarray:
    """`parse(values)`, rows of two numbers [re, im], as one complex128 array."""
    try:
        arr = parse(values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: every entry must be two numbers re, im ({exc})") from None
    if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != 2):  # (0,): no entries
        raise ValueError(f"{what}: every entry must be two numbers re, im")
    return arr.reshape(-1, 2).view(complex).ravel()  # bitwise complex(re, im)


class PhasorChannel:
    """Channel coefficients h_1..h_N plus an optional direct path h_0.

    `h` holds the coefficients as a read-only complex128 array;
    `coefficients` holds the same values as a tuple of Python complex.
    """

    def __init__(self, coefficients, direct: complex | None = None):
        h = np.array(coefficients, dtype=complex)
        if h.ndim != 1 or not len(h):
            raise ValueError("channel needs at least one coefficient")
        finite = np.isfinite(h)
        if not finite.all():
            raise ValueError(f"non-finite coefficient {complex(h[~finite][0])!r}")
        h.flags.writeable = False
        self.h = h
        self.direct = None if direct is None else complex(direct)

    @functools.cached_property
    def coefficients(self) -> tuple:
        return tuple(self.h.tolist())

    def __len__(self):
        return len(self.h)

    def __repr__(self):
        return f"PhasorChannel({self.h!r}, direct={self.direct!r})"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PhasorChannel":
        if "h" not in obj:
            raise ValueError('channel JSON needs an "h" list of [re, im] pairs')
        direct = obj.get("direct")
        if direct is not None:
            direct = _pairs(_floats, [direct], 'channel "direct"')[0]
        return cls(_pairs(_floats, obj["h"], 'channel "h"'), direct=direct)

    @classmethod
    def from_csv_text(cls, text: str) -> "PhasorChannel":
        """One `re,im` row per antenna, blank rows skipped; a `direct,re,im`
        row anywhere sets the direct path (the last one wins).

        The antenna rows go to `np.loadtxt` in one batch; only a text that
        holds the word "direct" is scanned row by row for direct rows.
        """
        rows = [line for line in text.splitlines() if line.strip(_BLANK)]
        direct = None
        if "direct" in text:
            antennas = []
            for line in rows:
                head, _, rest = line.partition(",")
                if head.strip() == "direct":
                    direct = _pairs(_floats, [rest.split(",")], "channel row direct,re,im")[0]
                else:
                    antennas.append(line)
            rows = antennas
        return cls(_pairs(_csv_floats, rows, "channel rows"), direct=direct)

    @classmethod
    def load(cls, path: str) -> "PhasorChannel":
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json_obj(json.loads(text))
        return cls.from_csv_text(text)


@dataclass(frozen=True, eq=False)
class BeamformingSolution:
    weights: np.ndarray  # read-only complex128, one weight per antenna
    gain: float
    ideal_gain: float
    ratio: float
    method: str

    def to_dict(self) -> dict:
        return {
            "weights": np.stack((self.weights.real, self.weights.imag), axis=1).tolist(),
            "gain": self.gain,
            "ideal_gain": self.ideal_gain,
            "ratio": self.ratio,
            "method": self.method,
        }


def ideal_gain(ch: PhasorChannel) -> float:
    """sum_n |h_n|, the unconstrained coherent-combining gain."""
    return float(np.abs(ch.h).sum())


def _finish(weights, ch: PhasorChannel, method: str,
            extra: complex = 0j, ideal: float | None = None) -> BeamformingSolution:
    weights = np.asarray(weights, dtype=complex)
    weights.flags.writeable = False
    gain = abs(extra + np.dot(weights, ch.h))
    if ideal is None:
        ideal = ideal_gain(ch)
    ratio = gain / ideal if ideal > 0.0 else 1.0
    return BeamformingSolution(weights, float(gain), float(ideal), float(ratio), method)


def greedy_quantize(ch: PhasorChannel, fset: FeasibleSet,
                    resolution: int = DEFAULT_RESOLUTION) -> BeamformingSolution:
    """Round each antenna to the set member best aligned with -theta_n."""
    return _finish(fset.project(-np.angle(ch.h), resolution), ch, "greedy")


def _sweep_polygon(fset: FeasibleSet, resolution: int | None):
    if fset.is_discrete:
        return fset.to_polygon()
    if resolution is None:
        raise ContinuousSetNotSupported(
            f"{type(fset).__name__} needs an explicit approximation resolution")
    return fset.to_polygon(resolution)


def solve_angle_sweep(ch: PhasorChannel, fset: FeasibleSet,
                      resolution: int | None = None) -> BeamformingSolution:
    """Exact optimum for finite W by the decoupled 1-D angle sweep.

    Per-antenna argmax assignments are piecewise constant in the sweep
    angle; breakpoints are the normal-fan boundaries of Conv W shifted by
    each channel phase.  Crossing boundary k of antenna n moves the sum by
    h_n (v_after[k] - v_after[k-1]) whatever the other antennas do, so the
    sweep is one sort of all events and one cumulative sum: the edge walk
    around the Minkowski sum of the h_n Conv W.  Every visited assignment
    is feasible, so the largest |sum| is an attainable gain and exact.
    """
    poly = _sweep_polygon(fset, resolution)
    verts = poly.array
    h = ch.h
    if len(poly) == 1:
        return _finish(np.full(len(h), poly.vertices[0]), ch, "angle_sweep")

    bounds, after = geometry.normal_fan(poly)
    edges = verts[after] - verts[np.roll(after, 1)]  # the step across each boundary
    active = np.flatnonzero(h)
    h_act = h[active]
    theta = np.add.outer(np.angle(h_act), bounds)
    theta %= TWO_PI
    # Each antenna starts in the state just before its own first event, so
    # an event rounded onto theta = 0 is counted once, by the cumulative sum.
    first = theta.argmin(axis=1)
    # Each per-event array is dropped once used: the peak stays near 40 bytes
    # per event.
    order = theta.argsort(axis=None, kind="stable")
    del theta
    ant, k = np.divmod(order, len(bounds))
    del order
    s = edges[k]
    del k
    s *= h_act[ant]
    s0 = np.dot(h_act, verts[after[first - 1]])
    crossed = np.zeros(len(active), dtype=int)
    if len(s):
        s[0] += s0
        np.cumsum(s, out=s)
        mag = np.abs(s)
        best = int(mag.argmax())
        if mag[best] > abs(s0):
            crossed = np.bincount(ant[:best + 1], minlength=len(active))
    assign = np.full(len(h), after[-1])  # zero coefficients: the arc through direction 0
    assign[active] = after[(first + crossed - 1) % len(bounds)]
    return _finish(verts[assign], ch, "angle_sweep")


def solve_minkowski(ch: PhasorChannel, fset: FeasibleSet,
                    budget: int = MINKOWSKI_BUDGET) -> BeamformingSolution:
    """Exact optimum via the Minkowski sum of the h_n * Conv W.

    The sum is merged pairwise in a balanced tree; each merge keeps the
    contributor pair of every vertex it makes.  From the vertex of largest
    modulus, one walk down those back-pointers reads off the feasible
    weights that produce it, so the maximizer comes with a certificate.
    """
    if not fset.is_discrete:
        raise ContinuousSetNotSupported("Minkowski solver needs a finite set")
    verts = fset.to_polygon().array
    if len(ch) * len(verts) > budget:
        raise BudgetExceeded(
            f"N*|V| = {len(ch) * len(verts)} exceeds budget {budget}")

    def merge(lo, hi):
        """Sum of h_n * Conv W over n in [lo, hi), and its back-pointer tree."""
        if hi - lo == 1:
            return ch.h[lo] * verts, lo  # h_n = 0 gives repeats of 0, merged as one
        mid = (lo + hi) // 2
        a, left = merge(lo, mid)
        b, right = merge(mid, hi)
        pts, contribs = geometry.minkowski_sum_indexed(a, b)
        return pts, (contribs, left, right)

    def walk(node, k):
        if isinstance(node, tuple):
            (i, j), left, right = node
            walk(left, i[k])
            walk(right, j[k])
        else:
            weights[node] = verts[k]

    weights = np.empty(len(ch), dtype=complex)
    pts, tree = merge(0, len(ch))
    walk(tree, int(np.abs(pts).argmax()))
    return _finish(weights, ch, "minkowski")


def brute_force(ch: PhasorChannel, fset: FeasibleSet,
                cap: int = BRUTE_FORCE_CAP) -> BeamformingSolution:
    """Exhaustive search over W^N; first-found tie kept."""
    if not fset.is_discrete:
        raise ContinuousSetNotSupported("exhaustive search needs a finite set")
    pts = np.asarray(fset.points(), dtype=complex)
    n_comb = len(pts) ** len(ch)
    if n_comb > cap:
        raise TooLarge(f"|W|^N = {n_comb} exceeds cap {cap}")
    acc = np.zeros(1, dtype=complex)
    for terms in np.multiply.outer(ch.h, pts):
        acc = (acc[:, None] + terms).ravel()
    k = int(np.argmax(np.abs(acc)))
    digits = []
    for _ in range(len(ch)):
        digits.append(k % len(pts))
        k //= len(pts)
    weights = pts[digits[::-1]]
    return _finish(weights, ch, "brute_force")


def ris_solve(ch: PhasorChannel, M: int) -> BeamformingSolution:
    """RIS configuration with a direct path, over the rotation group W_M.

    Solves the augmented (N+1)-antenna problem on (h_0, h_1..h_N), then
    rescales so the direct path carries a unit coefficient.  The reported
    ideal gain is that of the augmented problem, |h_0| + sum |h_n|.
    """
    if M < 1:
        raise NotAGroup("M must be >= 1")
    if ch.direct is None:
        raise ValueError("ris_solve needs a channel with a direct path")
    fset = RegularMGon(M)
    aug = PhasorChannel(np.concatenate(([ch.direct], ch.h)))
    sol = solve_angle_sweep(aug, fset)
    k = np.rint(np.angle(sol.weights[1:] / sol.weights[0]) * M / TWO_PI) % M
    weights = np.exp(2j * math.pi * k / M)
    ideal = abs(ch.direct) + ideal_gain(ch)
    return _finish(weights, ch, "ris", extra=ch.direct, ideal=ideal)


def worst_case_channel(N: int) -> PhasorChannel:
    """h_n = e^{j 2 pi n / N}: phases spread uniformly over the circle."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return PhasorChannel(tuple(cmath.exp(2j * math.pi * n / N) for n in range(1, N + 1)))


def tightness_channel(M: int, N: int) -> PhasorChannel:
    """h_n = e^{j 2 pi n / (M N)}: attains the fixed-N constant for W_M."""
    if M < 2 or N < 1:
        raise ValueError("need M >= 2 and N >= 1")
    return PhasorChannel(
        tuple(cmath.exp(2j * math.pi * n / (M * N)) for n in range(1, N + 1)))


def onoff_subset_check(ch: PhasorChannel, exhaustive: bool = False):
    """Subset S with |sum_{n in S} h_n| >= (1/pi) sum |h_n|.

    Returns (mask, ratio) where mask[n] is True for the kept antennas.
    The exhaustive variant enumerates all subsets and is limited to N <= 24.
    """
    if exhaustive:
        if len(ch) > 24:
            raise TooLarge("exhaustive subset search limited to N <= 24")
        sol = brute_force(ch, OnOff(), cap=2 ** 25)
    else:
        sol = solve_angle_sweep(ch, OnOff())
    mask = tuple((np.abs(sol.weights - 1.0) < 0.5).tolist())
    return mask, sol.ratio
