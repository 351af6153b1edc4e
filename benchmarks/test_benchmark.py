"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from phasegain import sets, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = map(json.loads, proc.stdout.strip().splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, detail["detail"]["failures"]
    probed = {op.get("defect") for op in workloads.generate(
        workload, 3, tmp_path, tiny=True)["probe"]}
    assert set(detail["detail"]["known_defects"]) == probed <= set(workloads.KNOWN_DEFECTS)
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_workload_reasons_match_the_benchmark_file():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS


def test_same_seed_same_inputs(tmp_path):
    def manifest(seed, sub):
        (tmp_path / sub).mkdir()
        m = workloads.generate("hires-oracle", seed, tmp_path / sub, tiny=True)
        return json.dumps(m).replace(str(tmp_path / sub), "")

    assert manifest(5, "a") == manifest(5, "b") != manifest(6, "c")
    for name in ("ch001.csv", "ch005.csv"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
        assert (tmp_path / "a" / name).read_text() != (tmp_path / "c" / name).read_text()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "discrete-cli", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


@pytest.fixture
def w4_instance():
    rng = np.random.default_rng(7)
    h = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2.0)
    desc = {"type": "regular", "M": 4}
    V = checks.reference_polygon(desc, 0)
    per = checks.perimeter(V)
    spec = {"set": desc, "C": per / checks.TWO_PI, "g_ref": checks.sweep_optimum(V, h)[0],
            "tol": checks.optimum_tolerance(len(h), len(V), per, 1.0, float(np.abs(h).sum()))}
    sol = solver.solve_angle_sweep(solver.PhasorChannel(tuple(h)), sets.RegularMGon(4))
    return h, spec, sol.to_dict()


def test_checker_accepts_the_exact_solution(w4_instance):
    h, spec, out = w4_instance
    ok, rel, reason = checks.check_solution(out, h, spec)
    assert ok, reason
    assert rel < 1e-12


def test_checker_rejects_a_perturbed_weight(w4_instance):
    h, spec, out = w4_instance
    out["weights"][5] = [out["weights"][5][0] * 0.999, out["weights"][5][1] * 0.999]
    w = np.array([complex(a, b) for a, b in out["weights"]])
    out["gain"] = float(abs(np.sum(w * h)))  # consistent gain, so membership must catch it
    ok, _, reason = checks.check_solution(out, h, spec)
    assert not ok and "away from W" in reason


def test_checker_rejects_an_inflated_gain(w4_instance):
    h, spec, out = w4_instance
    out["gain"] *= 1.0 + 1e-9
    ok, _, reason = checks.check_solution(out, h, spec)
    assert not ok and "|sum w h|" in reason


def test_checker_rejects_a_feasible_but_suboptimal_solution(w4_instance):
    h, spec, out = w4_instance
    k = int(np.argmin(np.abs(h)))  # the smallest loss, so only the optimum check can see it
    out["weights"][k] = [-out["weights"][k][0], -out["weights"][k][1]]
    w = np.array([complex(a, b) for a, b in out["weights"]])
    out["gain"] = float(abs(np.sum(w * h)))
    ok, _, reason = checks.check_solution(out, h, spec)
    assert not ok and "optimum" in reason


def test_fading_check_rejects_an_inflated_trial():
    C = checks.perimeter(checks.reference_polygon({"type": "onoff"}, 0)) / checks.TWO_PI
    spec = {"n_list": [4], "trials": 2, "C": C, "per": 2.0, "m": 2, "Eh": 1.0}
    rows = [(4, 0, 2.5, 4.0, 2.5 / 4.0), (4, 1, 2.0, 4.0, 0.5)]
    payload = {"records": [{"N": 4, "target": C, "mean_normalized_gain": (2.5 / 4 + 2.0 / 4) / 2}]}
    assert checks.check_fading(payload, rows, spec)[0] == 0
    rows[1] = (4, 1, 4.5, 4.0, 4.5 / 4.0)
    payload["records"][0]["mean_normalized_gain"] = (2.5 / 4 + 4.5 / 4) / 2
    failed, _, reason = checks.check_fading(payload, rows, spec)
    assert failed == 1 and "gain > ideal" in reason


def test_sweep_optimum_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        desc = workloads._convex_set(rng, int(rng.integers(2, 6)))
        V = checks.reference_polygon(desc, 0)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        per = checks.perimeter(V)
        tol = checks.optimum_tolerance(5, len(V), per, 1.0, float(np.abs(h).sum()))
        assert abs(checks.sweep_optimum(V, h)[0] - checks.enumerate_optimum(V, h)) <= tol
