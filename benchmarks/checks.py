"""Independent references and output checks for the benchmark.

Nothing here imports phasegain: the references are plain numpy (and
scipy's Qhull for one hull), so a defect in the code under test cannot
hide in its own reference.

Every tolerance is a worst-case floating-point error bound, not a value
fitted to what some seed outputs.  The model is Higham, *Accuracy and
Stability of Numerical Algorithms* (2nd ed., 2002), ch. 3-4: with unit
roundoff U, a sum of k terms computed in any order is within
gamma(k) * sum|terms| of the exact sum, where gamma(k) = kU / (1 - kU).
"""

from __future__ import annotations

import math

import numpy as np

U = 2.0 ** -53
TWO_PI = 2.0 * math.pi

# Slack, in units of U times the set's extent, for comparing a reported
# weight with the same point recomputed here.  Both sides evaluate one
# exp/sin/cos of an argument formed with at most three roundings (each at
# most 2*pi*gamma(3) off) plus one scaling, which is below 32 U; the
# factor 2 covers the two independent evaluations.
MEMBER_ULPS = 64


def gamma(k: int) -> float:
    """Higham's gamma_k: relative error bound of a k-term sum."""
    return k * U / (1.0 - k * U)


# ---------------------------------------------------------------------------
# reference polygons and constants


def _ris_radius(t, alpha: float, beta: float):
    return (1.0 - beta) * ((1.0 + np.sin(t)) / 2.0) ** alpha + beta


def reference_polygon(desc: dict, resolution: int) -> np.ndarray:
    """CCW vertices of Conv W (or of the inscribed sampled polygon).

    The discrete sets the benchmark generates are built in convex position
    and CCW order, so their points are their hull.  The sampled continuous
    sets are in strictly convex position except `ris`, whose hull comes
    from Qhull.
    """
    kind = desc["type"]
    if kind == "regular":
        return np.exp(2j * math.pi * np.arange(desc["M"]) / desc["M"])
    if kind == "onoff":
        return np.array([0j, 1 + 0j])
    if kind == "discrete":
        return np.array([complex(x, y) for x, y in desc["points"]])
    if kind == "arc":
        phis = np.linspace(desc["phi_min"], desc["phi_max"], resolution)
        return desc["radius"] * np.exp(1j * phis)
    if kind == "circle":
        c = complex(*desc["center"])
        return c + desc["radius"] * np.exp(1j * np.arange(resolution) * (TWO_PI / resolution))
    if kind == "ris":
        from scipy.spatial import ConvexHull

        t = np.arange(resolution) * (TWO_PI / resolution)
        s = _ris_radius(t, desc["alpha"], desc["beta"]) * np.exp(1j * t)
        hull = ConvexHull(np.column_stack([s.real, s.imag]))
        return s[hull.vertices]  # scipy returns 2-D hull vertices CCW
    raise ValueError(f"no reference polygon for {kind!r}")


def hull_perimeter(points: np.ndarray) -> float:
    """Perimeter of the hull of an arbitrary point set (segment: twice its length)."""
    pts = np.unique(points)
    if len(pts) == 1:
        return 0.0
    if len(pts) == 2:
        return 2.0 * abs(pts[1] - pts[0])
    from scipy.spatial import ConvexHull

    return perimeter(pts[ConvexHull(np.column_stack([pts.real, pts.imag])).vertices])


def perimeter(V: np.ndarray) -> float:
    """Perimeter of the closed CCW cycle V; a 2-cycle counts its edge twice."""
    return float(np.abs(np.roll(V, -1) - V).sum())


def _edge_normals(V: np.ndarray):
    d = np.roll(V, -1) - V
    return d, np.angle(d) - 0.5 * math.pi


def min_support(V: np.ndarray) -> float:
    """min over directions of max_v Re(e^{-j theta} v) for the CCW polygon V.

    Vertex V[k] is the support point on the arc between the normals of its
    two edges; the minimum over that arc is at an end, or -|V[k]| if the
    trough arg V[k] + pi falls inside.
    """
    _, psi = _edge_normals(V)
    lo = np.roll(psi, 1)
    hi = lo + np.mod(psi - lo, TWO_PI)
    ends = np.minimum((np.exp(-1j * lo) * V).real, (np.exp(-1j * hi) * V).real)
    trough = lo + np.mod(np.angle(V) + math.pi - lo, TWO_PI)
    inside = (trough <= hi) & (V != 0)
    return float(np.where(inside, -np.abs(V), ends).min())


def sweep_optimum(V: np.ndarray, h: np.ndarray):
    """(max over w in V^N of |sum w_n h_n|, sweep angle of the best state).

    The maximum is found by the edge walk of sum h_n Conv V.

    As the direction theta turns, antenna n moves from V[k] to V[k+1] at
    theta = psi_k + arg h_n, adding (V[k+1] - V[k]) h_n to the running sum.
    Every state on the walk is feasible and the optimum is one of them
    (de Berg et al., *Computational Geometry*, ch. 13).  The start state is
    read off each antenna's first event, so ties cannot make it
    inconsistent with the walk.
    """
    h = h[h != 0]
    if len(h) == 0 or len(V) == 1:
        return float(abs(V[0] * h.sum())), 0.0
    d, psi = _edge_normals(V)
    theta = np.mod(psi[None, :] + np.angle(h)[:, None], TWO_PI)
    s0 = np.sum(V[np.argmin(theta, axis=1)] * h)
    order = np.argsort(theta, axis=None, kind="stable")
    gains = np.abs(s0 + np.cumsum((h[:, None] * d[None, :]).ravel()[order]))
    best = int(gains.argmax())
    if abs(s0) >= gains[best]:
        return float(abs(s0)), 0.0
    return float(gains[best]), float(theta.ravel()[order[best]])


def enumerate_optimum(points: np.ndarray, h: np.ndarray) -> float:
    """max over all |W|^N assignments of |sum w_n h_n|, by enumeration."""
    acc = np.zeros(1, dtype=complex)
    for hn in h:
        acc = (acc[:, None] + (points * hn)[None, :]).ravel()
    return float(np.abs(acc).max())


def optimum_tolerance(n_ant: int, n_vert: int, per: float, vmax: float,
                      sum_h: float) -> float:
    """Bound on |g_code - g_ref| for two exact solvers of one instance.

    Both walk at most K = N*|V| events from a start sum of N terms, so each
    running sum is within gamma(K + N + 2) * (vmax + per) * sum|h| of exact
    (the steps of antenna n add up to |h_n| * per in modulus).  The solver
    may settle on a state whose drifted value was best, which costs twice
    its drift; the reference adds its own: four drifts in all, plus the
    final N-term evaluation of each side, folded into the 2*vmax term.
    """
    k = n_ant * n_vert + n_ant + 2
    return 4.0 * gamma(k) * (2.0 * vmax + per) * sum_h


# ---------------------------------------------------------------------------
# membership of weights in W


def member_distance(desc: dict, w: np.ndarray) -> np.ndarray:
    """Distance of each weight from the set W, computed from its descriptor."""
    kind = desc["type"]
    if kind == "regular":
        M = desc["M"]
        k = np.mod(np.rint(np.angle(w) * M / TWO_PI), M)
        return np.abs(w - np.exp(2j * math.pi * k / M))
    if kind in ("onoff", "discrete", "samples"):
        pts = reference_polygon(desc, 0) if kind == "onoff" else np.array(
            [complex(x, y) for x, y in desc["points"]])
        return np.abs(w[:, None] - pts[None, :]).min(axis=1)
    if kind == "arc":
        lo, hi, r = desc["phi_min"], desc["phi_max"], desc["radius"]
        mid = 0.5 * (lo + hi)
        t = np.angle(w * np.exp(-1j * mid)) + mid  # phase unwrapped around the arc
        on_arc = np.abs(np.abs(w) - r)
        ends = np.minimum(np.abs(w - r * np.exp(1j * lo)), np.abs(w - r * np.exp(1j * hi)))
        return np.where((t >= lo) & (t <= hi), on_arc, ends)
    if kind == "circle":
        c = complex(*desc["center"])
        return np.abs(np.abs(w - c) - desc["radius"])
    if kind == "ris":
        return np.abs(np.abs(w) - _ris_radius(np.angle(w), desc["alpha"], desc["beta"]))
    raise ValueError(f"no membership test for {kind!r}")


def member_tolerance(desc: dict) -> float:
    kind = desc["type"]
    if kind == "arc":  # phase error up to |phi| * U is scaled by the radius
        extent = desc["radius"] * (1.0 + max(abs(desc["phi_min"]), abs(desc["phi_max"])))
    elif kind == "circle":
        extent = abs(complex(*desc["center"])) + desc["radius"]
    elif kind == "ris":  # |dr/dt| <= alpha * (1 - beta) / 2 <= alpha
        extent = 1.0 + desc["alpha"]
    else:
        extent = 1.0
    return MEMBER_ULPS * U * extent


# ---------------------------------------------------------------------------
# checks of program outputs; each returns (ok, relative error, reason)


def check_solution(out: dict, h: np.ndarray, spec: dict):
    """Check one beamforming solution against an independent reference.

    spec: set (descriptor), C (lower-bound constant), tol (absolute slack of
    the bound and of the optimum), g_ref (optimum, or None for heuristics).
    """
    w = np.array([complex(a, b) for a, b in out["weights"]])
    if w.shape != h.shape:
        return False, math.inf, f"{len(w)} weights for {len(h)} antennas"
    mods = np.abs(w) * np.abs(h)
    g = float(abs(np.sum(w * h)))
    sum_h = float(np.abs(h).sum())
    # the program's sum and numpy's: N products and N-1 additions each
    tol_g = 2.0 * gamma(len(h) + 4) * float(mods.sum())
    err = abs(out["gain"] - g)
    rel = err / g if g > 0 else err
    if err > tol_g:
        return False, rel, f"gain {out['gain']!r} but |sum w h| = {g!r}"
    if abs(out["ideal_gain"] - sum_h) > 2.0 * gamma(len(h) + 2) * sum_h:
        return False, rel, f"ideal_gain {out['ideal_gain']!r} but sum|h| = {sum_h!r}"
    dist = member_distance(spec["set"], w)
    if dist.max() > member_tolerance(spec["set"]):
        k = int(dist.argmax())
        return False, rel, f"weight {k} = {w[k]!r} is {dist[k]:.3g} away from W"
    if g < spec["C"] * sum_h - spec["tol"]:
        return False, rel, f"gain {g!r} below C*sum|h| = {spec['C'] * sum_h!r}"
    if spec.get("g_ref") is not None:
        err = abs(g - spec["g_ref"])
        rel = max(rel, err / spec["g_ref"] if spec["g_ref"] > 0 else err)
        if err > spec["tol"]:
            return False, rel, f"gain {g!r} but the optimum is {spec['g_ref']!r}"
    return True, rel, ""


def check_analyze(out: dict, spec: dict):
    """Check an `analyze` report against the reference polygon's constants."""
    per = out["perimeter"]
    rel = abs(per - spec["per"]) / spec["per"]
    if abs(per - spec["per"]) > spec["tol_per"]:
        return False, rel, f"perimeter {per!r}, reference {spec['per']!r}"
    if abs(out["best_constant"] - per / TWO_PI) > 4.0 * U * per / TWO_PI:
        return False, rel, "best_constant is not perimeter / 2 pi"
    verts = np.array([complex(a, b) for a, b in out["hull_vertices"]])
    if len(verts) != out["hull_vertex_count"]:
        return False, rel, "hull_vertex_count disagrees with hull_vertices"
    if spec["count"] is not None and len(verts) != spec["count"]:
        return False, rel, f"hull keeps {len(verts)} of {spec['count']} vertices"
    dist = member_distance(spec["set"], verts)
    if dist.max() > member_tolerance(spec["set"]):
        return False, rel, f"hull vertex {dist.max():.3g} away from W"
    if abs(out["crude_constant"] - spec["crude"]) > spec["tol_crude"]:
        return False, rel, f"crude_constant {out['crude_constant']!r}, reference {spec['crude']!r}"
    return True, rel, ""


def check_fading(payload: dict, rows: list, spec: dict):
    """Check a fading run; returns (failed trials, worst relative error, reason).

    Each per-trial row must satisfy C*sum|h| <= gain <= sum|h| (|w| <= 1)
    and ratio = gain / ideal_gain; each record must aggregate its rows and
    carry the closed-form target E|h| * C.
    """
    want = {(n, t) for n in spec["n_list"] for t in range(spec["trials"])}
    got = {}
    for n, t, gain, ideal, ratio in rows:
        got[(n, t)] = (gain, ideal, ratio)
    failed, worst, reason = len(want - got.keys()), 0.0, ""
    if failed:
        reason = f"{failed} trials missing from the rows"
    target = spec["Eh"] * spec["C"]
    records = {r["N"]: r for r in payload["records"]}
    for n in spec["n_list"]:
        norm = [got[(n, t)][0] / n for t in range(spec["trials"]) if (n, t) in got]
        rec = records.get(n)
        bad_record = (rec is None
                      or abs(rec["target"] - target) > 2.0 * gamma(spec["m"] + 8) * target
                      or abs(rec["mean_normalized_gain"] - float(np.mean(norm)))
                      > 2.0 * gamma(len(norm) + 2) * float(np.mean(norm)))
        for t in range(spec["trials"]):
            if (n, t) not in got:
                continue
            gain, ideal, ratio = got[(n, t)]
            tol = optimum_tolerance(n, spec["m"], spec["per"], 1.0, ideal)
            worst = max(worst, abs(ratio - gain / ideal) / ratio if ratio else 0.0)
            why = ("record" if bad_record
                   else "gain > ideal" if gain > ideal * (1.0 + 2.0 * gamma(n + 2))
                   else "gain < C*ideal" if gain < spec["C"] * ideal - tol
                   else "ratio" if abs(ratio - gain / ideal) > 4.0 * U * ratio
                   else "")
            if why:
                failed += 1
                reason = reason or f"N={n} trial {t}: {why}"
    return failed, worst, reason
