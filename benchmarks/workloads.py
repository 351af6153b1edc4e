"""Seeded inputs for the benchmark workloads.

`generate(name, seed, workdir, tiny)` writes every file the program reads
(channel CSVs, set descriptors inline in argv) into `workdir` and returns
a manifest: one round of ops in a seeded order, an untimed warm-up op, the
tail percentile the workload reports with the rounds it needs, per-op
reference data for the checks, and the calls of the known-defect probe.
The same seed gives the same manifest.
Nothing here imports phasegain.

An op is {"kind": "cli", "argv": [...], "check": {...}} (phasegain.cli.main
in-process) or {"kind": "oracle", "instances": [...]} (library solvers on
each instance, which carries its own check), plus "ops": how many
benchmark ops one call completes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks

# Why each workload exists; mirrored by the "why" fields of BENCHMARK.json.
WORKLOADS = {
    "discrete-cli": "CLI solve --method sweep on W_4, W_8, on/off, a 6-point set at N 2^11-2^13 "
                    "and fading --workers 1: many antennas, few fan boundaries",
    "hires-oracle": "analyze/solve on sampled continuous sets with N 8-16 and library sweep vs "
                    "Minkowski vs brute force, |h| 1e-12..1e12: hulls, few antennas",
}

# Tail percentile of the per-op latencies, fixed per workload so that it
# does not move with the number of rounds a run completes.  A run repeats
# its rounds until at least ten calls lie beyond it.
TAIL_PERCENTILE = {"discrete-cli": 75, "hires-oracle": 75}
# An op's latency is its best round, so every op needs a few rounds to
# catch the machine free of load from elsewhere.
MIN_ROUNDS = 4

# The sampled continuous sets; `regular` takes M = the resolution.
CONTINUOUS_SETS = (
    {"type": "arc", "phi_min": -2.0, "phi_max": 2.0, "radius": 1.0},
    {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
    {"type": "ris", "alpha": 1.6, "beta": 0.2},
    {"type": "regular", "M": None},
)
# Resolution of the timed continuous-set calls.  At it the program keeps
# every hull vertex of each set above, so they are answered correctly;
# known defect D2 drops vertices of ris from 8192 on (see KNOWN_DEFECTS).
# Calls stay under 0.1 s, so that a run holds many rounds of each.
TIMED_RESOLUTION = 4096
# The sampling resolution of the known-defect probe (D2).
PROBE_RESOLUTION = 65536

def _gaussian(rng, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def _convex_set(rng, m: int) -> dict:
    """m points on a random ellipse inside the unit disk, CCW: all are hull vertices."""
    a = rng.uniform(0.6, 1.0)
    b = a * rng.uniform(0.3, 0.9)
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    p = (a * np.cos(t) + 1j * b * np.sin(t)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return {"type": "discrete", "points": [[z.real, z.imag] for z in p]}


class _Writer:
    """Writes channel files: a CSV for the program and an .npy for the checks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def channel(self, h: np.ndarray):
        self.count += 1
        stem = self.workdir / f"ch{self.count:03d}"
        np.savetxt(f"{stem}.csv", np.column_stack([h.real, h.imag]),
                   delimiter=",", fmt="%.17g")
        np.save(f"{stem}.npy", h)
        return f"{stem}.csv", f"{stem}.npy"


def _centred(V, h):
    """h turned by a common phase so that its optimum lies half-way round the sweep.

    A common phase changes no gain.  But the sweep under test walks all its
    events and then walks again up to the best one, so where the optimum
    falls would change a call's cost up to twofold from one seed to the next.
    """
    return h * np.exp(1j * (math.pi - checks.sweep_optimum(V, h)[1]))


def _solve_op(writer, desc, V, h, method, resolution=None):
    """`phasegain solve` on one channel, checked against the polygon V.

    An exact method must reach the edge-walk optimum over V and the bound
    g >= C sum|h| with C = perimeter/2pi; greedy rounding only guarantees
    the support minimum (the crude constant), and has no optimum to match.
    """
    csv, npy = writer.channel(h)
    argv = ["solve", json.dumps(desc), csv, "--method", method]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]
    per = checks.perimeter(V)
    vmax = float(np.abs(V).max())
    tol = checks.optimum_tolerance(len(h), len(V), per, vmax, float(np.abs(h).sum()))
    exact = method != "greedy"
    check = {
        "type": "solution",
        "channel": npy,
        "set": desc,
        "C": per / checks.TWO_PI if exact else checks.min_support(V),
        "g_ref": checks.sweep_optimum(V, h)[0] if exact else None,
        "tol": tol,
    }
    return {"kind": "cli", "argv": argv, "ops": 1, "check": check}


def _analyze_op(desc, V, res):
    """`phasegain analyze` at `res`, checked against the reference polygon V."""
    per = checks.perimeter(V)
    vmax = float(np.abs(V).max())
    edge_min = float(np.abs(np.roll(V, -1) - V).min())
    return {"kind": "cli", "argv": ["analyze", json.dumps(desc), "--resolution", str(res)],
            "ops": 1, "check": {
                "type": "analyze",
                "set": desc,
                "per": per,
                # every sample of these sets is a strict hull vertex; Qhull decides for ris
                "count": None if desc["type"] == "ris" else len(V),
                # sum of m edge lengths, each vertex up to 4U*vmax apart between sides
                "tol_per": 2.0 * checks.gamma(len(V) + 4) * per + 16.0 * checks.U * vmax * len(V),
                "crude": checks.min_support(V),
                # a normal's angle is off by U*vmax/edge, moving the support by vmax times that
                "tol_crude": 8.0 * checks.U * vmax * (1.0 + vmax / edge_min),
            }}


def _sampled(desc, res, tiny):
    """(descriptor, resolution, reference polygon) of a set of CONTINUOUS_SETS."""
    if tiny:
        res = min(res, 512)
    if desc["type"] == "regular":
        desc = {"type": "regular", "M": res}
    return desc, res, checks.reference_polygon(desc, res)


def _continuous_hires(rng, writer, tiny):
    """analyze, solve --method sweep (N = 8) and --method greedy (N = 16) on each set."""
    ops = []
    for desc in CONTINUOUS_SETS:
        desc, res, V = _sampled(desc, TIMED_RESOLUTION, tiny)
        ops.append(_analyze_op(desc, V, res))
        ops.append(_solve_op(writer, desc, V, _centred(V, _gaussian(rng, 8)), "sweep", res))
        ops.append(_solve_op(writer, desc, V, _gaussian(rng, 16), "greedy", res))
    arc = CONTINUOUS_SETS[0]
    V = checks.reference_polygon(arc, 256)
    warmup = _solve_op(writer, arc, V, _gaussian(rng, 8), "sweep", 256)
    return ops, warmup


def _fading_op(workdir, rng, desc, dist, n_list, trials, tag):
    V = checks.reference_polygon(desc, 0)
    csv_out = str(workdir / f"fading-{tag}.csv")
    argv = ["fading", json.dumps(desc), "--dist", dist,
            "--n-list", ",".join(str(n) for n in n_list), "--trials", str(trials),
            "--seed", str(int(rng.integers(2 ** 31))), "--workers", "1", "--csv-out", csv_out]
    return {"kind": "cli", "argv": argv, "ops": trials * len(n_list), "check": {
        "type": "fading",
        "csv_out": csv_out,
        "n_list": list(n_list),
        "trials": trials,
        "C": checks.perimeter(V) / checks.TWO_PI,
        "per": checks.perimeter(V),
        "m": len(V),
        "Eh": math.sqrt(math.pi) / 2.0 if dist == "gaussian" else 1.0,
    }}


def _discrete_cli(rng, writer, tiny):
    """`solve --method sweep` on four discrete sets at five N, and `fading` runs."""
    # five sizes a half-octave apart, so that the latency percentiles fall
    # among close neighbours
    sizes = (64, 128) if tiny else tuple(int(round(2 ** (11 + k / 2))) for k in range(5))
    sets = ({"type": "regular", "M": 4}, {"type": "regular", "M": 8},
            {"type": "onoff"}, _convex_set(rng, 6))
    ops = []
    for desc in sets:
        V = checks.reference_polygon(desc, 0)
        ops += [_solve_op(writer, desc, V, _centred(V, _gaussian(rng, n)), "sweep") for n in sizes]
    n_list, trials = ((16, 64), 2) if tiny else ((256, 1024, 4096), 4)
    ops += [_fading_op(writer.workdir, rng, desc, dist, n_list, trials, f"{i}{j}")
            for i, desc in enumerate(({"type": "regular", "M": 4}, {"type": "onoff"}))
            for j, dist in enumerate(("gaussian", "constant_modulus"))]
    w4 = {"type": "regular", "M": 4}
    warmup = _solve_op(writer, w4, checks.reference_polygon(w4, 0), _gaussian(rng, 64), "sweep")
    return ops, warmup, []


def _instance(points, h, solvers, g_ref, per):
    """One cross-check instance: every solver in `solvers` must reach g_ref."""
    tol = checks.optimum_tolerance(len(h), len(points), per, float(np.abs(points).max()),
                                   float(np.abs(h).sum()))
    desc = {"type": "discrete", "points": [[p.real, p.imag] for p in points]}
    return {"solvers": solvers, "h": [[z.real, z.imag] for z in h], "points": desc["points"],
            "check": {"type": "solution", "set": desc, "C": per / checks.TWO_PI,
                      "g_ref": g_ref, "tol": tol}}


SHAPES = [(n, m) for n in range(1, 7) for m in range(2, 6)]  # (N, |W|) of the brute-force tier


def _brute_tier(rng, lo, hi, solvers):
    """One instance per shape: random points in the unit disk, |h| scaled by 10**e.

    The exponents e are stratified over [lo, hi], so that every call covers
    each decade of |h| and costs the same whatever the seed.  `solvers(e)`
    names the solvers run on an instance; brute-force enumeration is the
    reference.
    """
    strata = rng.permutation(len(SHAPES))
    batch = []
    for (n, m), k in zip(SHAPES, strata):
        e = lo + (hi - lo) * (k + rng.random()) / len(SHAPES)
        pts = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pts /= np.maximum(1.0, np.abs(pts))
        h = 10.0 ** e * _gaussian(rng, n)
        batch.append(_instance(pts, h, solvers(e), checks.enumerate_optimum(pts, h),
                               checks.hull_perimeter(pts)))
    return {"kind": "oracle", "ops": len(batch), "instances": batch}


def _oracle_ops(rng, tiny):
    """Library cross-check calls; one op per instance.

    Brute-force tier: one call runs every (N, |W|) with N <= 6, |W| <= 5,
    as `phasegain oracle-compare` runs its instances in one call, with |h|
    from 1e-12 to 1e12.  The sweep and brute force run on every instance,
    Minkowski on those with |h| >= 1 (D1 below that; see KNOWN_DEFECTS).
    Medium tier: sweep against Minkowski where brute force cannot go, one
    call each.
    """
    ops = [_brute_tier(rng, -12.0, 12.0, lambda e: ["sweep", "brute_force"] + (
        ["minkowski"] if e >= 0.0 else []))]
    for n in ((16, 32) if tiny else (64, 128)):
        desc = _convex_set(rng, 5)
        V = checks.reference_polygon(desc, 0)
        h = _gaussian(rng, n)
        ops.append({"kind": "oracle", "ops": 1, "instances": [
            _instance(V, h, ["sweep", "minkowski"], checks.sweep_optimum(V, h)[0],
                      checks.perimeter(V))]})
    return ops


# Known defects of the program, each with the calls that show it.  The timed
# calls are ones the program answers correctly.  These calls are run once per
# run, untimed and after the measured run, in a process of their own, and are
# checked like the timed ones; their failures are reported apart, on the
# detail line and as check.known_defect_fail_ratio.  A fix shows as fewer
# failures here, and its calls can then join the timed ones.
KNOWN_DEFECTS = {
    "D1": "solve_minkowski is wrong at small |h|",
    "D2": "the hull drops vertices depending on the scale and the resolution of the set",
}


def _probe_ops(rng, writer, tiny):
    """analyze on the sampled sets, and the sweep where the dropped vertices
    change its answer, at the probe resolution (D2); Minkowski on the
    brute-force tier with |h| below 1 (D1)."""
    ops = []
    small_circle = {"type": "circle", "center": [0.0, 0.0], "radius": 1e-5}
    for desc, sweep in [(d, d["type"] == "ris") for d in CONTINUOUS_SETS] + [
            (small_circle, True)]:
        desc, res, V = _sampled(desc, PROBE_RESOLUTION, tiny)
        ops.append(dict(_analyze_op(desc, V, res), defect="D2"))
        if sweep:
            ops.append(dict(_solve_op(writer, desc, V, _centred(V, _gaussian(rng, 8)),
                                      "sweep", res), defect="D2"))
    ops.append(dict(_brute_tier(rng, -12.0, 0.0, lambda e: ["minkowski"]), defect="D1"))
    return ops


def _hires_oracle(rng, writer, tiny):
    """The continuous-set calls and the library cross-check calls."""
    ops, warmup = _continuous_hires(rng, writer, tiny)
    return ops + _oracle_ops(rng, tiny), warmup, _probe_ops(rng, writer, tiny)


_GENERATORS = {
    "discrete-cli": _discrete_cli,
    "hires-oracle": _hires_oracle,
}


def generate(name: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    ops, warmup, probe = _GENERATORS[name](rng, _Writer(workdir), tiny)
    order = rng.permutation(len(ops))
    pct = TAIL_PERCENTILE[name]
    beyond = len(ops) - math.ceil(pct / 100.0 * len(ops))
    return {
        "workload": name,
        "seed": seed,
        "tail_percentile": pct,
        "min_rounds": max(MIN_ROUNDS, math.ceil(10 / beyond)),
        "warmup": warmup,
        "ops": [ops[i] for i in order],
        "probe": probe,
    }
