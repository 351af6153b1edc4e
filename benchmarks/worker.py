"""One workload process: set up, warm up, then drive the ops in a closed loop.

Started by run.py, never by hand.  It prints "READY" once phasegain is
imported, the sets are built and the warm-up op has returned; run.py
times the process up to that line as one set-up sample.  With
--setup-only it exits there.  Otherwise it runs whole rounds of the
manifest's ops, one call at a time, timing each call and checking its
output outside the timed region, and prints one JSON line of raw results.
With --probe it instead runs the known-defect probe's calls once each,
untimed, and prints their check results by defect.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import speed

# Stop starting rounds after this much wall time, so that the process ends
# well inside the 180 s a run may take.
LOOP_WALL_LIMIT_S = 120.0


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--manifest", required=True)
    p.add_argument("--src", required=True, help="directory holding the phasegain package")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


class Tally:
    """Attempted and failed ops, the worst relative error, and why ops failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.max_rel_err = 0.0
        self.failures = {}  # label of the failing op -> [count, first reason]

    def count(self, ops, failed, rel, label, reason):
        self.attempted += ops
        self.failed += failed
        self.max_rel_err = max(self.max_rel_err, rel)
        if failed:
            self.failures.setdefault(label, [0, reason])[0] += failed

    def to_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "max_rel_err": self.max_rel_err, "failures": self.failures}


class Runner:
    """Runs ops against phasegain and checks their outputs."""

    def __init__(self, manifest: dict):
        from phasegain import cli, sets, solver

        self.cli, self.solver = cli, solver
        self.manifest = manifest
        # "building the sets": the library workload's sets are built once, as a caller would
        for op in manifest["ops"] + manifest["probe"]:
            for inst in op.get("instances", ()):
                inst["fset"] = sets.Discrete(tuple(complex(x, y) for x, y in inst["points"]))
                inst["h_tuple"] = tuple(complex(x, y) for x, y in inst["h"])
        self.channels = {}
        self.tally = Tally()  # the timed ops

    def call(self, op):
        """Run one op; returns (seconds, output or the exception it raised)."""
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejects argv this way
                rc = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                return time.perf_counter() - t0, exc
            dt = time.perf_counter() - t0
            if rc != 0:
                return dt, RuntimeError(f"exit {rc}: {err.getvalue().strip()[:200]}")
            return dt, out.getvalue()
        solvers = {"sweep": self.solver.solve_angle_sweep,
                   "minkowski": self.solver.solve_minkowski,
                   "brute_force": self.solver.brute_force}
        results = []
        t0 = time.perf_counter()
        for inst in op["instances"]:
            try:
                ch = self.solver.PhasorChannel(inst["h_tuple"])
                results.append({name: solvers[name](ch, inst["fset"]) for name in inst["solvers"]})
            except Exception as exc:  # one failed instance, the rest still run
                results.append(exc)
        dt = time.perf_counter() - t0
        return dt, [r if isinstance(r, Exception) else {k: s.to_dict() for k, s in r.items()}
                    for r in results]

    def _channel(self, path):
        if path not in self.channels:
            self.channels[path] = np.load(path)
        return self.channels[path]

    def check(self, op, result, tally):
        """Check one call's output; failures are counted in `tally`, never raised."""
        if op["kind"] == "oracle":
            # every solver must pass on an instance
            for inst, sols in zip(op["instances"], result):
                failed, rel, reason = 0, 0.0, ""
                if isinstance(sols, Exception):
                    failed, reason = 1, f"raised {type(sols).__name__}: {sols}"
                else:
                    h = np.array(inst["h_tuple"])
                    for name, sol in sols.items():
                        ok, r, why = checks.check_solution(sol, h, inst["check"])
                        rel = max(rel, r)
                        if not ok:
                            failed, reason = 1, reason or f"{name}: {why}"
                tally.count(1, failed, rel, f"oracle N={len(inst['h'])} |W|={len(inst['points'])}",
                            reason)
            return
        spec = op["check"]
        failed, rel, reason = op["ops"], 0.0, ""
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                if spec["type"] == "solution":
                    ok, rel, reason = checks.check_solution(
                        json.loads(result), self._channel(spec["channel"]), spec)
                    failed = 0 if ok else 1
                elif spec["type"] == "analyze":
                    ok, rel, reason = checks.check_analyze(json.loads(result), spec)
                    failed = 0 if ok else 1
                elif spec["type"] == "fading":
                    with open(spec["csv_out"], newline="", encoding="utf-8") as f:
                        rows = [(int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]))
                                for r in list(csv.reader(f))[1:]]
                    failed, rel, reason = checks.check_fading(json.loads(result), rows, spec)
            except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
                failed, reason = op["ops"], f"unreadable output: {exc!r}"
        tally.count(op["ops"], failed, rel, " ".join(op["argv"][:2] + op["argv"][3:5]), reason)

    def rounds(self, seconds: float, min_rounds: int, max_rounds: int | None = None):
        """Run whole rounds until `seconds` of timed calls and `min_rounds` rounds.

        Returns the call times round by round, in the manifest's op order,
        and in the same layout the reference kernel's time just before each
        call (it runs untimed; see speed.py).
        """
        times, refs, total, t_start = [], [], 0.0, time.perf_counter()
        while True:
            round_times, round_refs = [], []
            for op in self.manifest["ops"]:
                round_refs.append(speed.reference_time())
                dt, result = self.call(op)
                round_times.append(dt)
                self.check(op, result, self.tally)
            times.append(round_times)
            refs.append(round_refs)
            total += sum(round_times)
            if max_rounds is not None:
                if len(times) >= max_rounds:
                    break
            elif total >= seconds and len(times) >= min_rounds:
                break
            if time.perf_counter() - t_start > LOOP_WALL_LIMIT_S:
                break
        return times, refs


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, args.src)
    import phasegain

    if not Path(phasegain.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"error: phasegain imported from {phasegain.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    with open(args.manifest, encoding="utf-8") as f:
        manifest = json.load(f)
    runner = Runner(manifest)
    runner.call(manifest["warmup"])
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.probe:
        tallies = {}
        for op in manifest["probe"]:
            runner.check(op, runner.call(op)[1], tallies.setdefault(op["defect"], Tally()))
        print(json.dumps({d: t.to_dict() for d, t in tallies.items()}), flush=True)
        return 0
    result = {}
    if args.trace:
        import tracing

        # Half the time untraced, then the same rounds traced: the ratio of
        # the two is the tracing overhead.
        plain = runner.rounds(args.seconds / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        times, refs = runner.rounds(0.0, 0, max_rounds=len(plain[0]))
        result["layers"] = tracer.summary(len(times))
        result["overhead_ratio"] = (sum(speed.scaled_latencies(times, refs))
                                    / sum(speed.scaled_latencies(*plain)))
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        times, refs = runner.rounds(args.seconds, manifest["min_rounds"])
    result.update(runner.tally.to_dict())
    result.update({
        "times": times,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
