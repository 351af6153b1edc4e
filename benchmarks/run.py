#!/usr/bin/env python3
"""phasegain benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (phasegain under src/).  It generates the
workload's inputs from --seed, times the set-up of several fresh worker
processes, runs the workload for --seconds in one of them, checks every
output, runs the workload's known-defect probe untimed in one more, and
prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of BENCHMARK.json.
Provenance and details go on the lines before it and, with the spans of a
traced run, into .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Numerical libraries get one thread in every process the benchmark starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11  # fresh processes timed to READY; the median is setup_s
RUN_TIMEOUT_S = 170.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "phasegain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _run_worker(manifest_path: Path, extra: list, deadline: float):
    """Start a worker; returns (seconds to READY, the JSON line it ends with or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
           "--src", str(SRC)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        if proc.stdout.readline().strip() != "READY":
            raise RuntimeError("worker failed during set-up")
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (SRC / "phasegain" / "__init__.py").is_file():
        print(f"error: no phasegain package under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        manifest = workloads.generate(args.workload, args.seed, work, tiny=args.tiny)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        # Set-up samples are spread before and after the measured run so that
        # one burst of outside load cannot shift all of them.  They are not
        # scaled to the reference speed: scaled by the kernel's time in the
        # same process, or by the run's, they spread more between runs.
        def setup_sample():
            return _run_worker(manifest_path, ["--setup-only"], deadline)[0]

        setups = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans-out", str(out_dir / f"{stem}.spans.jsonl")]
        setup, raw = _run_worker(manifest_path, extra, deadline)
        setups.append(setup)
        setups += [setup_sample() for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
        defects = {}
        if manifest["probe"]:
            defects = _run_worker(manifest_path, ["--probe"], deadline)[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Each op's latency is its best round, scaled to the reference speed.
    # Load from elsewhere on a shared machine only ever adds time, and comes
    # in bursts of a fraction of a second, so the minimum is the steadiest
    # estimate of what the call itself costs; the scaling removes the slower
    # spells that last a whole run.  The latency percentiles and the throughput are taken over
    # these per-op values.  The same figures unscaled go to the detail line.
    n_ops = sum(op["ops"] for op in manifest["ops"])
    pct = manifest["tail_percentile"]
    latency = speed.scaled_latencies(raw["times"], raw["refs"])
    wall = [min(r[i] for r in raw["times"]) for i in range(len(manifest["ops"]))]
    if args.trace:
        values = dict(raw["layers"])
        values["check.max_rel_err"] = raw["max_rel_err"]
        values["check.fail_ratio"] = raw["failed"] / raw["attempted"]
        values["check.known_defect_fail_ratio"] = (
            sum(d["failed"] for d in defects.values())
            / max(1, sum(d["attempted"] for d in defects.values())))
        values["trace.overhead_ratio"] = raw["overhead_ratio"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n_ops / sum(latency),
            "call_s_p50": percentile(latency, 50),
            "call_s_tail": percentile(latency, pct),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    # BENCHMARK.json names the metrics and their units; each must be measured.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    detail = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "rounds": len(raw["times"]),
        "calls": sum(map(len, raw["times"])),
        "tail_percentile": manifest["tail_percentile"],
        "calls_beyond_tail": len(raw["times"]) * sum(
            1 for x in latency if x > percentile(latency, pct)),
        # reference kernel time over REFERENCE_S: how much slower the machine ran
        "slowdown_per_round": [min(r) / speed.REFERENCE_S for r in raw["refs"]],
        "unscaled": {
            "ops_per_s": n_ops / sum(wall),
            "call_s_p50": percentile(wall, 50),
            "call_s_tail": percentile(wall, pct),
        },
        "setup_samples": setups,
        "fail_ratio": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
        "known_defects": {name: dict(what=workloads.KNOWN_DEFECTS[name], **probe)
                          for name, probe in defects.items()},
    }
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"detail": detail, "result": result, "times": raw["times"], "refs": raw["refs"]}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
