"""Command-line front end.

Subcommands: analyze, solve, worst-case, fading, oracle-compare.
Each payload goes to stdout as one compact JSON line, byte for byte what
`json.dumps` prints for it; --csv switches to tabular output.  `_emit` is
the one encoder: it writes weight and vertex arrays itself, encoding each
distinct value once, and a payload holding NaN or infinity (a result that
overflowed) is an input error that leaves stdout empty.  The parser is
built once per process, so repeated `main` calls skip that cost.
Exit codes: 0 success, 1 input error, 2 budget/limit error.
The env var PHASEGAIN_BUDGET overrides the vertex/enumeration caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bounds, fading, solver
from .errors import (
    BudgetExceeded,
    PhasegainError,
    TooLarge,
)
from .sets import from_descriptor


def _load_set(spec: str):
    """Parse a set descriptor given inline as JSON or as @path."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as f:
            spec = f.read()
    return from_descriptor(json.loads(spec))


def _budget(default: int) -> int:
    env = os.environ.get("PHASEGAIN_BUDGET")
    return int(env) if env else default


def _json(value) -> str:
    """`json.dumps(value)` with no NaN or infinity; a complex ndarray is
    encoded as `[[re, im], ...]`, each distinct value (by bit pattern, so
    -0.0 and 0.0 stay apart) once."""
    if not isinstance(value, np.ndarray):
        return json.dumps(value, allow_nan=False)
    value = np.ascontiguousarray(value, dtype=complex)
    if not np.isfinite(value).all():
        raise ValueError("Out of range float values are not JSON compliant")
    bits = value.view(np.dtype((np.void, value.itemsize)))
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    # json.dumps writes a finite float as its repr
    encoded = [f"[{re!r}, {im!r}]"
               for re, im in zip(value.real[first].tolist(), value.imag[first].tolist())]
    return "[" + ", ".join([encoded[i] for i in inverse.tolist()]) + "]"


def _field(key: str, value) -> str:
    try:
        return _json(value)
    except ValueError:  # only NaN and infinity fail to encode
        raise PhasegainError(f"{key} overflows: a non-finite value has no JSON form") from None


def _emit(payload: dict, as_csv: bool, rows=None, header=None):
    """Write the payload as one compact JSON line, or as CSV.

    The whole text is built before any of it is written, so a payload that
    cannot be encoded leaves stdout empty.
    """
    if not as_csv:
        text = "{" + ", ".join(f"{json.dumps(key)}: {_field(key, value)}"
                               for key, value in payload.items()) + "}\n"
    elif rows is not None:
        text = "".join(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n"
                       for row in [header, *rows])
    else:
        text = "".join(f"{key},{_field(key, value)}\n" for key, value in payload.items())
    sys.stdout.write(text)


def _solution_payload(sol, fset) -> dict:
    """The solution's fields in `to_dict()`'s order, weights still an array, and the set."""
    return dict(vars(sol), set=fset.descriptor())


def cmd_analyze(args) -> int:
    fset = _load_set(args.set)
    report = bounds.build_report(fset, N=args.n, resolution=args.resolution)
    poly = fset.to_polygon(args.resolution)  # kept on fset by build_report
    payload = report.to_dict()
    payload["set"] = fset.descriptor()
    payload["hull_vertices"] = poly.array
    _emit(payload, args.csv)
    return 0


def cmd_solve(args) -> int:
    fset = _load_set(args.set)
    ch = solver.PhasorChannel.load(args.channel)
    method = args.method
    if ch.direct is not None:
        desc = fset.descriptor()
        if desc.get("type") != "regular":
            raise PhasegainError("a direct-path channel requires a regular M-gon set")
        sol = solver.ris_solve(ch, desc["M"])
    elif method == "greedy":
        sol = solver.greedy_quantize(ch, fset, resolution=args.resolution)
    elif method == "minkowski":
        sol = solver.solve_minkowski(ch, fset, budget=_budget(solver.MINKOWSKI_BUDGET))
    elif method == "oracle":
        sol = solver.brute_force(ch, fset, cap=_budget(solver.BRUTE_FORCE_CAP))
    else:  # sweep, and auto: exact for discrete sets, exact up to the hull
        # resolution for continuous ones
        sol = solver.solve_angle_sweep(ch, fset, resolution=args.resolution)
    _emit(_solution_payload(sol, fset), args.csv)
    return 0


def cmd_worst_case(args) -> int:
    fset = _load_set(args.set)
    if not fset.is_discrete:
        raise PhasegainError("worst-case demo requires a discrete set")
    if args.tight is not None:
        ch = solver.tightness_channel(args.tight, args.n)
    else:
        ch = solver.worst_case_channel(args.n)
    sol = solver.solve_angle_sweep(ch, fset)
    payload = _solution_payload(sol, fset)
    payload["N"] = args.n
    payload["best_constant"] = bounds.best_constant(fset)
    try:
        payload["refined_constant"] = bounds.refined_constant(fset, args.n)
    except PhasegainError:
        payload["refined_constant"] = None
    _emit(payload, args.csv)
    return 0


def cmd_fading(args) -> int:
    fset = _load_set(args.set)
    cfg = fading.FadingConfig(
        fset=fset,
        n_list=tuple(int(x) for x in args.n_list.split(",")),
        trials=args.trials,
        seed=args.seed,
        distribution=args.dist,
        resolution=args.resolution,
    )
    records, rows = fading.convergence_experiment(cfg, workers=args.workers)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as f:
            f.write("N,trial,gain,ideal_gain,ratio\n")
            for row in rows:
                f.write(",".join(repr(x) if isinstance(x, float) else str(x)
                                 for x in row) + "\n")
    payload = {
        "set": fset.descriptor(),
        "distribution": cfg.distribution,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "records": [r.to_dict() for r in records],
    }
    _emit(payload, args.csv, rows=rows,
          header=("N", "trial", "gain", "ideal_gain", "ratio"))
    return 0


def cmd_oracle_compare(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        n_ant = int(rng.integers(1, args.max_n + 1))
        n_pts = int(rng.integers(2, args.max_set + 1))
        pts = rng.standard_normal(n_pts) + 1j * rng.standard_normal(n_pts)
        pts /= np.maximum(1.0, np.abs(pts))
        fset = from_descriptor(
            {"type": "discrete", "points": [[p.real, p.imag] for p in pts]})
        # |h| spans 1e-12..1e12, so that no solver may lean on a unit scale
        h = 10.0 ** rng.uniform(-12.0, 12.0) * (
            rng.standard_normal(n_ant) + 1j * rng.standard_normal(n_ant))
        ch = solver.PhasorChannel(h)
        gains = [
            solver.solve_angle_sweep(ch, fset).gain,
            solver.solve_minkowski(ch, fset, budget=_budget(solver.MINKOWSKI_BUDGET)).gain,
            solver.brute_force(ch, fset, cap=_budget(solver.BRUTE_FORCE_CAP)).gain,
        ]
        scale = max(gains) or solver.ideal_gain(ch)
        worst = max(worst, (max(gains) - min(gains)) / scale)
    payload = {
        "instances": args.instances,
        "seed": args.seed,
        "max_relative_deviation": worst,
    }
    _emit(payload, args.csv)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="phasegain",
        description="Beamforming gain analysis for nonideal phase-shifter sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--csv", action="store_true", help="tabular output")
        p.add_argument("--resolution", type=int, default=4096,
                       help="boundary sampling resolution for continuous sets")

    p = sub.add_parser("analyze", help="shortfall constants of a set")
    p.add_argument("set", help="JSON set descriptor, or @file")
    p.add_argument("--n", type=int, default=None,
                   help="antenna count for the refined fixed-N constant")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="solve one channel instance")
    p.add_argument("set")
    p.add_argument("channel", help="channel file (CSV re,im lines or JSON)")
    p.add_argument("--method", default="auto",
                   choices=("auto", "greedy", "sweep", "minkowski", "oracle"))
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("worst-case", help="solve the worst-case channel")
    p.add_argument("set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tight", type=int, default=None, metavar="M",
                   help="use the regular-(M*N)-gon tightness channel instead")
    common(p)
    p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("fading", help="Monte Carlo hardening experiment")
    p.add_argument("set")
    p.add_argument("--dist", default="gaussian",
                   choices=("gaussian", "constant_modulus"))
    p.add_argument("--n-list", default="256,1024,4096")
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv-out", default=None, help="write per-trial rows here")
    common(p)
    p.set_defaults(func=cmd_fading)

    p = sub.add_parser("oracle-compare",
                       help="cross-check sweep vs Minkowski vs brute force")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-set", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhasegainError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
