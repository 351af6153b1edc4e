import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasegain
from phasegain import bounds, cli, geometry, sets, solver

REGULAR4 = '{"type": "regular", "M": 4}'


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -------------------------------------------------------------- analyze

def test_analyze_regular_4gon(capsys):
    payload = run_json(capsys, "analyze", REGULAR4, "--n", "2")
    assert payload["best_constant"] == pytest.approx(
        (4 / math.pi) * math.sin(math.pi / 4), abs=1e-12)
    assert payload["shortfall_db"] == pytest.approx(-0.912, abs=0.0005)
    assert payload["hull_vertex_count"] == 4
    assert payload["refined_constant"] == pytest.approx(
        bounds.refined_constant(sets.RegularMGon(4), 2), abs=1e-12)
    assert len(payload["hull_vertices"]) == 4


def test_analyze_descriptor_roundtrip(capsys):
    payload = run_json(capsys, "analyze", REGULAR4)
    again = sets.from_descriptor(payload["set"])
    rep = bounds.build_report(again)
    assert rep.best_constant == payload["best_constant"]
    assert rep.perimeter == payload["perimeter"]


def test_analyze_set_from_file(capsys, tmp_path):
    p = tmp_path / "set.json"
    p.write_text('{"type": "onoff"}')
    payload = run_json(capsys, "analyze", f"@{p}")
    assert payload["best_constant"] == pytest.approx(1 / math.pi, abs=1e-12)


def test_analyze_csv_output(capsys):
    code, out, _ = run(capsys, "analyze", REGULAR4, "--csv")
    assert code == 0
    fields = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(fields["best_constant"]) == pytest.approx(
        (4 / math.pi) * math.sin(math.pi / 4), abs=1e-12)


def test_analyze_builds_the_hull_once(capsys, monkeypatch):
    builds = []
    convex_hull = geometry.convex_hull

    def counted(points):
        builds.append(points)
        return convex_hull(points)

    monkeypatch.setattr(geometry, "convex_hull", counted)
    payload = run_json(capsys, "analyze", REGULAR4, "--n", "8")
    assert len(builds) == 1
    assert payload["refined_constant"] == bounds.refined_constant(sets.RegularMGon(4), 8)


def test_analyze_malformed_descriptor(capsys):
    code, _, err = run(capsys, "analyze", '{"type": "regular"')
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "analyze", '{"type": "wat"}')
    assert code == 1
    code, _, err = run(capsys, "analyze", '{"type": "regular", "M": 1e400}')
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------- solve

def write_channel(tmp_path, text, name="ch.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_auto_discrete(capsys, tmp_path):
    ch = write_channel(tmp_path, "1,0\n0,1\n")
    payload = run_json(capsys, "solve", REGULAR4, ch)
    assert payload["gain"] == pytest.approx(2.0, abs=1e-12)
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert payload["method"] == "angle_sweep"


def test_solve_methods_agree(capsys, tmp_path):
    ch = write_channel(tmp_path, "0.7,-0.2\n-0.3,0.9\n1.1,0.4\n")
    gains = {}
    for method in ("sweep", "minkowski", "oracle", "greedy"):
        payload = run_json(capsys, "solve", REGULAR4, ch, "--method", method)
        gains[method] = payload["gain"]
    assert gains["sweep"] == pytest.approx(gains["minkowski"], rel=1e-9)
    assert gains["sweep"] == pytest.approx(gains["oracle"], rel=1e-9)
    assert gains["greedy"] <= gains["sweep"] + 1e-12


def test_solve_continuous_auto_sweeps(capsys, tmp_path):
    ch = write_channel(tmp_path, "1,0\n0.2,0.9\n-0.7,0.4\n")
    circle = '{"type": "circle", "center": [0, 0.5], "radius": 0.5}'
    code, out, err = run(capsys, "solve", circle, ch, "--resolution", "64")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["method"] == "angle_sweep"
    assert payload == run_json(capsys, "solve", circle, ch, "--method", "sweep",
                               "--resolution", "64")
    greedy = run_json(capsys, "solve", circle, ch, "--method", "greedy", "--resolution", "64")
    assert payload["gain"] >= greedy["gain"]


def test_solve_direct_path(capsys, tmp_path):
    ch = write_channel(tmp_path, "direct,1,0\n-1,0\n")
    payload = run_json(capsys, "solve", '{"type": "regular", "M": 2}', ch)
    assert payload["gain"] == pytest.approx(2.0, abs=1e-12)


def test_solve_direct_path_needs_regular(capsys, tmp_path):
    ch = write_channel(tmp_path, "direct,1,0\n-1,0\n")
    code, _, err = run(capsys, "solve", '{"type": "onoff"}', ch)
    assert code == 1
    assert "regular" in err


@pytest.mark.parametrize("text,name", [
    ("1,0\n0.5\n", "ch.csv"),                       # a row with one number
    ("1,0,2\n", "ch.csv"),                          # a row with three numbers
    ("1,0\nx,1\n", "ch.csv"),                       # a field that is not a number
    ("direct,1\n1,0\n", "ch.csv"),                  # a direct row without im
    ("\n \n", "ch.csv"),                            # no rows at all
    ('{"direct": [1, 0]}', "ch.json"),              # no "h"
    ('{"h": [[1, 0], [2]]}', "ch.json"),            # an entry that is not a pair
    ('{"h": [1, 0]}', "ch.json"),                   # numbers instead of pairs
    ('{"h": [[1, 0]], "direct": [1]}', "ch.json"),  # a direct path that is not a pair
])
def test_solve_malformed_channel_exits_1(capsys, tmp_path, text, name):
    code, out, err = run(capsys, "solve", REGULAR4, write_channel(tmp_path, text, name))
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


def test_solve_channel_rows_blank_whitespace_and_direct(capsys, tmp_path):
    ch = write_channel(tmp_path, "\n 1 ,\t0 \n  \n , \ndirect,1,0\n\n-1,0\n")
    payload = run_json(capsys, "solve", '{"type": "regular", "M": 2}', ch)
    assert payload["method"] == "ris"
    assert len(payload["weights"]) == 2
    assert payload["gain"] == pytest.approx(3.0, abs=1e-12)


SIGNED_ZEROS = '{"type": "discrete", "points": [[1, 0.0], [-0.0, 1], [-1, -0.0], [0.0, -1]]}'
ARC = '{"type": "arc", "phi_min": -2, "phi_max": 2}'
ROWS = "0.7,-0.2\n-0.3,0.9\n1.1,0.4\n-0.5,-0.5\n0.2,1\n"


def expected_solution(desc, path, method, resolution):
    """The library's answer to `phasegain solve desc path --method method`."""
    fset = sets.from_descriptor(json.loads(desc))
    ch = solver.PhasorChannel.load(path)
    if ch.direct is not None:
        return fset, solver.ris_solve(ch, fset.M)
    if method == "greedy":
        return fset, solver.greedy_quantize(ch, fset, resolution=resolution)
    return fset, solver.solve_angle_sweep(ch, fset, resolution=resolution)


@pytest.mark.parametrize("desc,text,method,resolution", [
    (REGULAR4, ROWS, "sweep", 4096),
    (REGULAR4, ROWS, "greedy", 4096),
    ('{"type": "regular", "M": 8}', ROWS, "sweep", 4096),
    ('{"type": "regular", "M": 8}', ROWS, "greedy", 4096),
    ('{"type": "onoff"}', ROWS, "sweep", 4096),
    ('{"type": "onoff"}', ROWS, "greedy", 4096),
    (SIGNED_ZEROS, ROWS, "sweep", 4096),
    (SIGNED_ZEROS, ROWS, "greedy", 4096),
    (ARC, ROWS, "sweep", 64),
    (ARC, ROWS, "greedy", 64),
    ('{"type": "regular", "M": 8}', "direct,0.3,0.1\n0.7,-0.2\n-0.3,0.9\n", "auto", 4096),
])
def test_solve_prints_one_json_line(capsys, tmp_path, desc, text, method, resolution):
    path = write_channel(tmp_path, text)
    code, out, err = run(capsys, "solve", desc, path, "--method", method,
                         "--resolution", str(resolution))
    assert code == 0, err
    fset, sol = expected_solution(desc, path, method, resolution)
    assert out == json.dumps(dict(sol.to_dict(), set=fset.descriptor())) + "\n"
    if desc == SIGNED_ZEROS:  # the case must put both zeros in the output
        parts = np.concatenate((sol.weights.real, sol.weights.imag))
        assert len(set(np.signbit(parts[parts == 0]).tolist())) == 2


SIGNED = np.array([complex(1, 0.0), complex(1, -0.0), complex(-0.0, 0.0), 0j,
                   complex(-0.0, -0.0), complex(1, 0.0), complex(-0.0, 0.0)])


@pytest.mark.parametrize("weights", [SIGNED, SIGNED[::2], SIGNED[:1], SIGNED[:0]])
def test_array_encoding_keeps_signed_zeros_apart(weights):
    assert cli._json(weights) == json.dumps(
        np.stack((weights.real, weights.imag), axis=1).tolist())


def test_array_encoding_rejects_non_finite_values():
    with pytest.raises(ValueError):
        cli._json(np.array([1 + 0j, complex(math.inf, 0)]))


def test_solve_csv_output_is_byte_identical(capsys, tmp_path):
    path = write_channel(tmp_path, ROWS)
    code, out, err = run(capsys, "solve", SIGNED_ZEROS, path, "--csv")
    assert code == 0, err
    fset, sol = expected_solution(SIGNED_ZEROS, path, "auto", 4096)
    payload = dict(sol.to_dict(), set=fset.descriptor())
    assert out == "".join(f"{key},{json.dumps(value)}\n" for key, value in payload.items())


def test_worst_case_output_is_byte_identical(capsys):
    code, out, err = run(capsys, "worst-case", REGULAR4, "--n", "16")
    assert code == 0, err
    fset = sets.RegularMGon(4)
    sol = solver.solve_angle_sweep(solver.worst_case_channel(16), fset)
    payload = dict(sol.to_dict(), set=fset.descriptor(), N=16,
                   best_constant=bounds.best_constant(fset),
                   refined_constant=bounds.refined_constant(fset, 16))
    assert out == json.dumps(payload) + "\n"


@pytest.mark.parametrize("desc", [REGULAR4, SIGNED_ZEROS, ARC])
def test_analyze_output_is_byte_identical(capsys, desc):
    code, out, err = run(capsys, "analyze", desc, "--resolution", "64")
    assert code == 0, err
    fset = sets.from_descriptor(json.loads(desc))
    poly = fset.to_polygon(64)
    payload = dict(bounds.build_report(fset, resolution=64).to_dict(), set=fset.descriptor(),
                   hull_vertices=np.stack((poly.array.real, poly.array.imag), axis=1).tolist())
    assert out == json.dumps(payload) + "\n"


def test_solve_gain_overflow_exits_1(capsys, tmp_path):
    # the optimum of these rows, 3e308, overflows to inf, which has no JSON form
    path = write_channel(tmp_path, "1e308,0\n0,1e308\n-1e308,0\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "solve", '{"type":"regular","M":4}', path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: gain overflows")


def run_fresh_or_reused(capsys, argv, fresh):
    """`run`, with a parser built for this call alone if `fresh`; an
    argparse error counts as its exit code."""
    if fresh:
        cli.build_parser.cache_clear()
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


@pytest.mark.parametrize("first,second", [
    (["solve", ARC, "CH", "--csv"], ["solve", ARC, "CH"]),
    (["solve", ARC, "CH", "--resolution", "64"], ["solve", ARC, "CH"]),
    (["analyze", ARC, "--resolution", "64", "--n", "4"], ["analyze", ARC]),
    (["solve", ARC, "CH", "--csv", "--method", "nope"], ["solve", ARC, "CH"]),
])
def test_reused_parser_leaks_no_state(capsys, tmp_path, first, second):
    ch = write_channel(tmp_path, ROWS)
    first, second = ([ch if a == "CH" else a for a in argv] for argv in (first, second))
    expected = [run_fresh_or_reused(capsys, argv, fresh=True) for argv in (first, second)]
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    got = [run_fresh_or_reused(capsys, argv, fresh=False) for argv in (first, second)]
    assert cli.build_parser() is parser
    assert got == expected
    assert got[1][0] == 0


def test_python_m_phasegain(tmp_path):
    src = str(Path(phasegain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "phasegain", "solve", REGULAR4,
         write_channel(tmp_path, "1,0\n0,1\n")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["gain"] == pytest.approx(2.0, abs=1e-12)


def test_solve_missing_channel_file(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", REGULAR4, str(tmp_path / "nope.csv"))
    assert code == 1


def test_solve_budget_env(capsys, tmp_path, monkeypatch):
    ch = write_channel(tmp_path, "1,0\n" * 8)
    monkeypatch.setenv("PHASEGAIN_BUDGET", "4")
    code, _, _ = run(capsys, "solve", REGULAR4, ch, "--method", "minkowski")
    assert code == 2
    code, _, _ = run(capsys, "solve", REGULAR4, ch, "--method", "oracle")
    assert code == 2
    monkeypatch.delenv("PHASEGAIN_BUDGET")
    payload = run_json(capsys, "solve", REGULAR4, ch, "--method", "minkowski")
    assert payload["gain"] == pytest.approx(8.0, abs=1e-12)


# ----------------------------------------------------------- worst-case

def test_worst_case(capsys):
    payload = run_json(capsys, "worst-case", REGULAR4, "--n", "128")
    limit = (4 / math.pi) * math.sin(math.pi / 4)
    assert payload["N"] == 128
    assert payload["best_constant"] == pytest.approx(limit, abs=1e-12)
    assert limit <= payload["ratio"] <= 1.0
    assert payload["ratio"] == pytest.approx(limit, abs=2e-3)


def test_worst_case_tight(capsys):
    payload = run_json(capsys, "worst-case", '{"type": "regular", "M": 2}',
                       "--n", "2", "--tight", "2")
    assert payload["ratio"] == pytest.approx(payload["refined_constant"], abs=1e-9)


def test_worst_case_rejects_continuous(capsys):
    code, _, _ = run(capsys, "worst-case",
                     '{"type": "circle", "center": [0, 0], "radius": 1}', "--n", "4")
    assert code == 1


# --------------------------------------------------------------- fading

def test_fading_deterministic(capsys, tmp_path):
    argv = ("fading", REGULAR4, "--n-list", "8,16", "--trials", "3", "--seed", "5")
    p1 = run_json(capsys, *argv)
    p2 = run_json(capsys, *argv)
    assert p1 == p2
    assert [r["N"] for r in p1["records"]] == [8, 16]
    assert all(len(r["p_norm_estimates"]) == 2 for r in p1["records"])


def test_fading_continuous_set(capsys):
    arc = '{"type": "arc", "phi_min": -2, "phi_max": 2}'
    code, out, err = run(capsys, "fading", arc, "--resolution", "256",
                         "--n-list", "8,16", "--trials", "2", "--csv")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "N,trial,gain,ideal_gain,ratio"
    assert len(lines) == 5
    c = bounds.best_constant(sets.Arc(-2.0, 2.0), 256)
    for line in lines[1:]:
        _, _, gain, ideal, _ = (float(x) for x in line.split(","))
        assert c * ideal * (1 - 1e-12) <= gain <= ideal * (1 + 1e-12)


def test_fading_csv_out(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    run_json(capsys, "fading", REGULAR4, "--n-list", "8", "--trials", "2",
             "--csv-out", str(out_path))
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "N,trial,gain,ideal_gain,ratio"
    assert len(lines) == 3


def test_fading_csv_table(capsys):
    code, out, _ = run(capsys, "fading", REGULAR4, "--n-list", "8",
                       "--trials", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,trial,gain,ideal_gain,ratio"
    assert len(lines) == 3


# ------------------------------------------------------- oracle-compare

def test_oracle_compare(capsys):
    payload = run_json(capsys, "oracle-compare", "--instances", "20", "--seed", "3")
    assert payload["instances"] == 20
    assert payload["max_relative_deviation"] <= 1e-9
